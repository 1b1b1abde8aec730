package main

import (
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/query"
	"axmltx/internal/sim/des"
	"axmltx/internal/xmldom"
)

// Replay probes measure the leaf libraries that have no boundary a
// decorator can reach in the middle of a transaction. They run after the
// window, on the workload's own documents and queries and on the real
// payloads the transport tap captured.

// probeSpec names what a workload's probes replay.
type probeSpec struct {
	node    *node
	doc     string   // document parsed, marshalled, cloned and queried
	queries []string // the workload's query texts over doc
	sharded string   // sharded document held by node, "" for none
}

// probeBudget bounds each probe: enough repetitions for a steady median
// without stretching the run.
const probeBudget = 150 * time.Millisecond

// probeMedian calls fn repeatedly within the budget (at least 5 times, at
// most 2000) and returns the median duration in microseconds.
func probeMedian(fn func()) float64 {
	var d []time.Duration
	deadline := time.Now().Add(probeBudget)
	for len(d) < 5 || (len(d) < 2000 && time.Now().Before(deadline)) {
		start := time.Now()
		fn()
		d = append(d, time.Since(start))
	}
	return us(des.Percentile(sortedCopy(d), 0.5))
}

func runProbes(spec probeSpec, out map[string]float64) {
	store := spec.node.peer.Store()
	out["axml.snapshot_us_p50"] = probeMedian(func() { store.Snapshot(spec.doc) })
	snap, ok := store.Snapshot(spec.doc)
	if !ok {
		return
	}
	text := xmldom.DocumentString(snap)
	kb := float64(len(text)) / 1024
	out["xmldom.marshal_us_per_kb"] = probeMedian(func() { xmldom.DocumentString(snap) }) / kb
	out["xmldom.parse_us_per_kb"] = probeMedian(func() { _, _ = xmldom.ParseString(spec.doc, text) }) / kb

	// Parse and evaluate each of the workload's queries; report the mean
	// of the per-query medians.
	var parse, eval float64
	for _, src := range spec.queries {
		parse += probeMedian(func() { _, _ = query.Parse(query.CleanSource(src)) })
		q := query.MustParse(query.CleanSource(src))
		eval += probeMedian(func() { _, _ = store.Evaluator().Eval(snap, q) })
	}
	out["query.parse_us_p50"] = parse / float64(len(spec.queries))
	out["query.eval_us_p50"] = eval / float64(len(spec.queries))

	if spec.sharded != "" {
		spine, _ := store.Spine(spec.sharded)
		var frags []*axml.Fragment
		for _, f := range store.Fragments() {
			if f.Doc == spec.sharded {
				frags = append(frags, f)
			}
		}
		out["axml.assemble_us_p50"] = probeMedian(func() { _, _ = axml.AssembleDocument(spec.sharded, spine, frags) })
	}
}

// wireValue returns a fresh value of the type a captured payload decodes
// into, or nil for kinds the workloads do not send.
func wireValue(p capturedPayload) any {
	switch {
	case p.kind == p2p.KindInvoke && !p.response:
		return new(core.InvokeRequest)
	case p.kind == p2p.KindInvoke:
		return new(core.InvokeResponse)
	case p.kind == p2p.KindChainUpdate:
		return new(core.ChainUpdate)
	case p.kind == p2p.KindFragFetch && !p.response:
		return new(core.FragFetchRequest)
	case p.kind == p2p.KindFragFetch:
		return new(core.FragFetchResponse)
	}
	return nil
}

// replayWire pushes the captured payloads back through the wire codec.
func replayWire(payloads []capturedPayload, out map[string]float64) {
	var n, bytes int
	var decNs, encNs int64
	for _, p := range payloads {
		v := wireValue(p)
		if v == nil {
			continue
		}
		start := now()
		err := core.DecodeWire(p.data, v)
		mid := now()
		if err != nil {
			continue
		}
		core.EncodeWire(v)
		end := now()
		n++
		bytes += len(p.data)
		decNs += mid - start
		encNs += end - mid
	}
	if n == 0 {
		return
	}
	out["wire.decode_us_per_msg"] = float64(decNs) / 1e3 / float64(n)
	out["wire.encode_us_per_msg"] = float64(encNs) / 1e3 / float64(n)
	out["wire.bytes_per_msg"] = float64(bytes) / float64(n)
}
