package sim

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// perfWireSamples builds the representative hot-path message pair: an
// InvokeRequest with params, a reuse map and a three-node chain, and the
// InvokeResponse answering it. The shapes match what the recovery
// experiments actually put on the wire.
func perfWireSamples() (*core.InvokeRequest, *core.InvokeResponse) {
	chain := &core.Chain{Nodes: []core.ChainNode{
		{Peer: "AP1", Super: true, Parent: 0},
		{Peer: "AP2", Service: "getPoints", Parent: 0},
		{Peer: "AP3", Service: "updateRanking", Parent: 1},
	}}
	req := &core.InvokeRequest{
		Txn:     "txn-bench-1",
		Origin:  p2p.PeerID("AP1"),
		Caller:  p2p.PeerID("AP2"),
		Service: "updateRanking",
		Params:  map[string]string{"doc": "ATPList.xml", "name": "Roger Federer", "points": "475"},
		Chain:   chain,
		Reused:  map[string][]string{"getPoints": {"<points>475</points>"}},
	}
	resp := &core.InvokeResponse{
		Service:   "updateRanking",
		Fragments: []string{"<ranking ok='1'/>", "<entry n='2'/>"},
		Chain:     chain,
		Comp:      []byte(`<compensate service="updateRanking"/>`),
		Nodes:     7,
	}
	return req, resp
}

// RunPerfWireCodec measures request/response round trips (encode + decode
// of both messages) through the wire codec, reporting throughput and
// allocations per round trip.
func RunPerfWireCodec(ops int) []PerfResult {
	req, resp := perfWireSamples()
	roundTrip := func() {
		var rq core.InvokeRequest
		var rs core.InvokeResponse
		if err := core.DecodeWire(core.EncodeWire(req), &rq); err != nil {
			panic(err)
		}
		if err := core.DecodeWire(core.EncodeWire(resp), &rs); err != nil {
			panic(err)
		}
	}
	// Warm the writer pool so steady state is measured.
	for i := 0; i < 16; i++ {
		roundTrip()
	}
	lat := make([]time.Duration, 0, ops)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		roundTrip()
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs)/float64(ops) - 1 // the latency slice append
	if allocs < 0 {
		allocs = 0
	}
	return []PerfResult{summarize("wire_roundtrip_binary", ops, elapsed, lat, allocs)}
}

// perfFillSegmented appends history records (five-record committed
// transactions) into a fresh segmented log at dir and closes it. With
// checkpoint set, a checkpoint + compaction runs after the load, leaving
// the directory in the steady state a checkpointing deployment restarts
// from.
func perfFillSegmented(dir string, history int, checkpoint bool) {
	log, err := wal.OpenDir(dir, wal.SegmentOptions{})
	if err != nil {
		panic(err)
	}
	txn := 0
	for n := 0; n < history; {
		id := fmt.Sprintf("T%d", txn)
		txn++
		recs := []*wal.Record{
			{Txn: id, Type: wal.TypeBegin},
			{Txn: id, Type: wal.TypeInsert, Doc: "D.xml", XML: "<row>payload</row>"},
			{Txn: id, Type: wal.TypeInsert, Doc: "D.xml", XML: "<row>payload</row>"},
			{Txn: id, Type: wal.TypeInsert, Doc: "D.xml", XML: "<row>payload</row>"},
			{Txn: id, Type: wal.TypeCommit},
		}
		for _, r := range recs {
			if _, err := log.Append(r); err != nil {
				panic(err)
			}
			n++
			if n >= history {
				break
			}
		}
	}
	if checkpoint {
		if err := log.Checkpoint(); err != nil {
			panic(err)
		}
		if _, err := log.Compact(); err != nil {
			panic(err)
		}
	}
	if err := log.Close(); err != nil {
		panic(err)
	}
}

// RunPerfWALReplay measures restart (OpenDir replay) latency over a
// history-record segmented log in three states: the full history with no
// checkpoint, the same history after a checkpoint + compaction, and an
// empty log. Ops/sec counts restarts; the checkpointed/history ratio is
// the regression-gated wal_replay_checkpoint_speedup_x, and the
// checkpointed/empty gap shows replay is O(live state), not O(history).
func RunPerfWALReplay(history, trials int) []PerfResult {
	root, err := os.MkdirTemp("", "axmlreplay")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)

	dirs := map[string]string{
		"wal_replay_history":      root + "/history",
		"wal_replay_checkpointed": root + "/checkpointed",
		"wal_replay_empty":        root + "/empty",
	}
	perfFillSegmented(dirs["wal_replay_history"], history, false)
	perfFillSegmented(dirs["wal_replay_checkpointed"], history, true)
	perfFillSegmented(dirs["wal_replay_empty"], 0, false)

	restart := func(name, dir string) PerfResult {
		lat := make([]time.Duration, 0, trials)
		start := time.Now()
		for i := 0; i < trials; i++ {
			t0 := time.Now()
			log, err := wal.OpenDir(dir, wal.SegmentOptions{})
			if err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(t0))
			if err := log.Close(); err != nil {
				panic(err)
			}
		}
		return summarize(name, trials, time.Since(start), lat, 0)
	}

	return []PerfResult{
		restart("wal_replay_history", dirs["wal_replay_history"]),
		restart("wal_replay_checkpointed", dirs["wal_replay_checkpointed"]),
		restart("wal_replay_empty", dirs["wal_replay_empty"]),
	}
}
