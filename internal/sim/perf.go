package sim

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/sim/des"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// PerfResult is one measured configuration of the hot-path performance
// suite (PR 1): materialization, WAL append throughput, serialization.
type PerfResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Observability-overhead fields (PR 4), set only by RunObsOverhead:
	// span traffic of the run and throughput relative to the tracing-off
	// baseline of the same workload (negative = slower than baseline).
	SpansEmitted  int64   `json:"spans_emitted,omitempty"`
	SpansKept     int64   `json:"spans_kept,omitempty"`
	VsBaselinePct float64 `json:"vs_baseline_pct,omitempty"`
	// UpstreamCalls is how many invocations reached the remote provider, set
	// only by RunCacheExperiment (PR 7): the cached/uncached ratio is the
	// dedupe factor the materialization cache buys.
	UpstreamCalls int64 `json:"upstream_calls,omitempty"`
}

// MaterializeRig is the deployed-path setup of the materialization rows: an
// origin core.Peer whose documents embed calls to a provider peer's
// services over an in-memory network with a fixed per-message delay.
type MaterializeRig struct {
	origin *core.Peer
	docs   []string
}

// NewMaterializeRig builds a rig with calls remote service calls. batched
// embeds all of them in one document, so one materialization round invokes
// them as one batch whose round trips overlap; otherwise each call has a
// document of its own, materialized one after another.
func NewMaterializeRig(calls int, delay time.Duration, batched bool) *MaterializeRig {
	net := p2p.NewNetwork(delay)
	provider := core.NewPeer(net.Join("P"), wal.NewMemory(), core.Options{})
	r := &MaterializeRig{origin: core.NewPeer(net.Join("O"), wal.NewMemory(), core.Options{})}
	var all string
	for i := 1; i <= calls; i++ {
		frag := fmt.Sprintf("<r%d>v</r%d>", i, i)
		provider.HostService(services.NewFuncService(
			services.Descriptor{Name: fmt.Sprintf("svc%d", i), ResultName: fmt.Sprintf("r%d", i)},
			func(context.Context, map[string]string) ([]string, error) { return []string{frag}, nil }))
		sc := fmt.Sprintf(`<axml:sc methodName="svc%d" serviceURL="P" mode="replace"/>`, i)
		all += sc
		if !batched {
			r.host(fmt.Sprintf("D%d.xml", i), sc)
		}
	}
	if batched {
		r.host("D.xml", all)
	}
	return r
}

func (r *MaterializeRig) host(name, calls string) {
	if err := r.origin.HostDocument(name, "<D>"+calls+"</D>"); err != nil {
		panic(err)
	}
	r.docs = append(r.docs, name)
}

// Materialize runs one transaction that materializes every call and
// commits, and returns how long the materialization took.
func (r *MaterializeRig) Materialize() (time.Duration, error) {
	txc := r.origin.Begin()
	start := time.Now()
	for _, doc := range r.docs {
		if _, err := r.origin.Store().MaterializeAll(txc.ID, doc, r.origin); err != nil {
			return 0, err
		}
	}
	took := time.Since(start)
	return took, r.origin.Commit(context.Background(), txc)
}

// RunPerfMaterialize times trials transactions of a MaterializeRig with
// calls calls and the given network delay: materialize_parallel when
// batched, materialize_sequential otherwise. Ops per second count
// materialization time only.
func RunPerfMaterialize(calls, trials int, delay time.Duration, batched bool) PerfResult {
	rig := NewMaterializeRig(calls, delay, batched)
	lat := make([]time.Duration, 0, trials)
	var total time.Duration
	for t := 0; t < trials; t++ {
		took, err := rig.Materialize()
		if err != nil {
			panic(err)
		}
		lat = append(lat, took)
		total += took
	}
	name := "materialize_sequential"
	if batched {
		name = "materialize_parallel"
	}
	return summarize(name, trials, total, lat, 0)
}

// AppendDurableTxn logs one durable transaction: four effect records,
// which a durable log buffers, then the commit record, whose Append returns
// only once all five are on disk. It is the unit of the WAL
// throughput rows: timing bare effect appends would compare fsync against
// no fsync once effect records stop waiting.
func AppendDurableTxn(log wal.Log, txn string) error {
	for i := 0; i < 4; i++ {
		if _, err := log.Append(&wal.Record{
			Txn: txn, Type: wal.TypeInsert, Doc: "D.xml", XML: "<row>payload</row>",
		}); err != nil {
			return err
		}
	}
	_, err := log.Append(&wal.Record{Txn: txn, Type: wal.TypeCommit})
	return err
}

// RunPerfWAL measures multi-writer transaction throughput of the durable
// log: writers goroutines each log perWriter durable transactions
// (AppendDurableTxn) concurrently; one op is one transaction. The row is
// wal_group_commit, or wal_group_commit_1w for a single writer: the
// ratio of the two is how far concurrent commits share an fsync.
func RunPerfWAL(writers, perWriter int) PerfResult {
	dir, err := os.MkdirTemp("", "axmlperf")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	log, err := wal.OpenDir(dir, wal.SegmentOptions{})
	if err != nil {
		panic(err)
	}
	defer log.Close()

	var mu sync.Mutex
	lat := make([]time.Duration, 0, writers*perWriter)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				t0 := time.Now()
				if err := AppendDurableTxn(log, fmt.Sprintf("T%d-%d", w, i)); err != nil {
					panic(err)
				}
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	name := "wal_group_commit"
	if writers == 1 {
		name += "_1w"
	}
	return summarize(name, writers*perWriter, elapsed, lat, 0)
}

// RunPerfSerialize measures MarshalString over the paper's ATPList document
// (players entries), reporting allocations per serialization.
func RunPerfSerialize(players, ops int) PerfResult {
	doc, err := xmldom.ParseString("ATPList.xml", GenerateATPDoc(players, 4))
	if err != nil {
		panic(err)
	}
	root := doc.Root()
	// Warm the buffer pool so steady-state allocation is what's measured.
	for i := 0; i < 8; i++ {
		_ = xmldom.MarshalString(root)
	}
	var before, after runtime.MemStats
	lat := make([]time.Duration, 0, ops)
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		_ = xmldom.MarshalString(root)
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs)/float64(ops) - 1 // the latency slice append
	if allocs < 0 {
		allocs = 0
	}
	return summarize("serialize_marshal", ops, elapsed, lat, allocs)
}

// RunPerfSuite runs the whole hot-path suite with the PR's reference
// parameters: 8 remote calls over 5ms links, 16 concurrent WAL writers, a
// 200-player ATP document.
func RunPerfSuite() []PerfResult {
	const (
		calls   = 8
		delay   = 5 * time.Millisecond
		trials  = 20
		writers = 16
		perW    = 100
	)
	rs := []PerfResult{
		RunPerfMaterialize(calls, trials, delay, false),
		RunPerfMaterialize(calls, trials, delay, true),
		RunPerfWAL(1, writers*perW),
		RunPerfWAL(writers, perW),
		RunPerfSerialize(200, 5000),
	}
	rs = append(rs, RunPerfWireCodec(50000)...)
	// 100k records is the W1 reference history: checkpointed restart must
	// land within ~2x of an empty-log restart.
	rs = append(rs, RunPerfWALReplay(100000, 20)...)
	// C1 reference parameters: 3 clients, 16-key zipfian universe, 240
	// materializations — enough repeats that the uncached run performs well
	// over 10x the upstream calls of the cached run.
	rs = append(rs,
		RunCacheExperiment(3, 16, 240, true, 1),
		RunCacheExperiment(3, 16, 240, false, 1))
	// L1 reference load: light vs loaded open-loop runs feed the
	// load_p99_ratio regression row.
	rs = append(rs, RunLoadRows(false)...)
	// SH1 reference parameters: sharded assembly scaling and heat-driven
	// placement, feeding the shard_scale_x and placement_p50_win_x rows.
	rs = append(rs, RunShardRows(false)...)
	return rs
}

// RunPerfSuiteQuick is the suite with reduced parameters, sized for CI smoke
// runs: same result schema, a fraction of the wall-clock time.
func RunPerfSuiteQuick() []PerfResult {
	// Trial counts are sized so the derived ratios (materialize speedup, WAL
	// group-commit speedup) are stable enough for the -compare regression
	// gate; 5 trials made them swing >10% run to run.
	rs := []PerfResult{
		RunPerfMaterialize(4, 15, 2*time.Millisecond, false),
		RunPerfMaterialize(4, 15, 2*time.Millisecond, true),
		RunPerfWAL(1, 400),
		RunPerfWAL(8, 50),
		RunPerfSerialize(50, 500),
	}
	rs = append(rs, RunPerfWireCodec(5000)...)
	rs = append(rs, RunPerfWALReplay(5000, 50)...)
	rs = append(rs,
		RunCacheExperiment(3, 8, 120, true, 1),
		RunCacheExperiment(3, 8, 120, false, 1))
	rs = append(rs, RunLoadRows(true)...)
	rs = append(rs, RunShardRows(true)...)
	return rs
}

// summarize folds raw latencies into a PerfResult.
func summarize(name string, ops int, elapsed time.Duration, lat []time.Duration, allocs float64) PerfResult {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	// Nanosecond resolution: sub-microsecond medians (a local in-memory
	// fragment fetch) must not truncate to zero, which would break the
	// derived latency ratios.
	pct := func(p float64) float64 {
		return float64(des.Percentile(lat, p).Nanoseconds()) / 1e3
	}
	return PerfResult{
		Name:        name,
		Ops:         ops,
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		P50Micros:   pct(0.50),
		P99Micros:   pct(0.99),
		AllocsPerOp: allocs,
	}
}
