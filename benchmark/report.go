package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/sim/des"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system would see; the same
// names on every workload, each with a regression bound in BENCHMARK.json.
var endToEndDefs = []metricDef{
	{"txn_per_s", "1/s"},
	{"txn_p50_ms", "ms"},
	{"txn_p90_ms", "ms"},
	{"settle_p50_ms", "ms"},
	{"settle_p90_ms", "ms"},
	{"cpu_ms_per_txn", "ms"},
	{"allocs_per_txn", "count"},
	{"alloc_kb_per_txn", "KB"},
	{"setup_s", "s"},
}

// perLayerDefs are the traced run's metrics, named <layer>.<what>; the
// layer is the module whose boundary the number was taken at.
var perLayerDefs = []metricDef{
	{"p2p.msgs_per_txn", "count"},
	{"p2p.payload_bytes_per_txn", "B"},
	{"p2p.request_errors", "count"},
	{"p2p.transit_us_p50", "us"},
	{"p2p.transit_us_per_txn", "us"},
	{"p2p.send_us_p50", "us"},
	{"wire.encode_us_per_msg", "us"},
	{"wire.decode_us_per_msg", "us"},
	{"wire.bytes_per_msg", "B"},
	{"core.begin_us_p50", "us"},
	{"core.exec_us_p50", "us"},
	{"core.call_us_p50", "us"},
	{"core.commit_us_p50", "us"},
	{"core.abort_us_p50", "us"},
	{"core.assemble_us_p50", "us"},
	{"core.exec_self_us_p50", "us"},
	{"core.serve_self_us_p50", "us"},
	{"core.commit_handle_us_p50", "us"},
	{"core.abort_handle_us_p50", "us"},
	{"core.invocations_per_txn", "count"},
	{"core.aborts_sent_per_txn", "count"},
	{"core.compensations_per_txn", "count"},
	{"core.nodes_undone_per_txn", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_misses_per_txn", "count"},
	{"core.cache_invalidations_per_txn", "count"},
	{"core.frag_fetches_per_assemble", "count"},
	{"axml.applies_per_txn", "count"},
	{"axml.apply_us_p50", "us"},
	{"axml.apply_self_us_p50", "us"},
	{"axml.snapshot_us_p50", "us"},
	{"axml.assemble_us_p50", "us"},
	{"query.parse_us_p50", "us"},
	{"query.eval_us_p50", "us"},
	{"xmldom.parse_us_per_kb", "us/KB"},
	{"xmldom.marshal_us_per_kb", "us/KB"},
	{"wal.records_per_txn", "count"},
	{"wal.syncs_per_txn", "count"},
	{"wal.bytes_per_txn", "B"},
	{"wal.txnrecords_calls_per_txn", "count"},
	{"wal.append_us_p50", "us"},
	{"wal.sync_us_p50", "us"},
	{"wal.sync_us_p95", "us"},
	{"wal.txnrecords_us_p50", "us"},
	{"wal.segments_end", "count"},
	{"wal.dir_kb_end", "KB"},
	{"client.txn_p95_ms", "ms"},
	{"client.txn_p99_ms", "ms"},
	{"client.txn_max_ms", "ms"},
	{"client.samples", "count"},
	{"client.late_p95_ms", "ms"},
	{"client.queue_p95_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.assemble_p50_ms", "ms"},
	{"client.update_p50_ms", "ms"},
	{"client.schedule_hash", "hash"},
	{"client.failed_share", "ratio"},
	{"share.client", "ratio"},
	{"share.core", "ratio"},
	{"share.p2p_transit", "ratio"},
	{"share.axml", "ratio"},
	{"share.wal_append", "ratio"},
	{"share.wal_sync", "ratio"},
	{"share.wal_read", "ratio"},
	{"trace.sum_over_e2e", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_per_txn", "count"},
	{"trace.orphans_per_txn", "count"},
}

func newResult(defs []metricDef, values map[string]float64) *result {
	r := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

func (r *result) print(w io.Writer, defs []metricDef, samples int) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", d.name, r.Metrics[d.name].Value, d.unit, samples)
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func p50us(v []time.Duration) float64 { return us(des.Percentile(sortedCopy(v), 0.5)) }
func p95us(v []time.Duration) float64 { return us(des.Percentile(sortedCopy(v), 0.95)) }

func clusterMetrics(c *cluster) core.MetricsSnapshot {
	var total core.MetricsSnapshot
	for _, n := range c.nodes {
		total.Add(n.peer.Metrics().Snapshot())
	}
	return total
}

// runWorkload is one run of one workload: the timed run, or with
// cfg.trace the traced run. Progress and the metric table go to out.
func runWorkload(cfg *config, out io.Writer) (*result, error) {
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var r *runner
	var w workload
	var setupS []float64
	for rep := 0; rep < setups; rep++ {
		if r != nil {
			r.c.close()
		}
		var err error
		if w, err = newWorkload(cfg.workload); err != nil {
			return nil, err
		}
		w.draw(cfg)
		var d time.Duration
		if r, d, err = setUp(cfg, w, rep); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	c := r.c
	defer c.close()
	fs := fsType(cfg.dir)
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%v filesystem=%s schedule_hash=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, fs, w.hash())
	if fs == "tmpfs" && c.nodes[0].walDir != "" {
		fmt.Fprintln(out, "# WARNING: -dir is on tmpfs: fsync is free there, so wal.* times and every latency of this durable workload mean nothing")
	}

	var res *result
	var win *window
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
		values, traced, err := tracedRun(cfg, r, w)
		if err != nil {
			return nil, err
		}
		win = traced
		res = newResult(defs, values)
	} else {
		win = r.measure(secondsDur(cfg.seconds))
		e := win.summarize()
		res = newResult(defs, map[string]float64{
			"txn_per_s": e.txnPerS, "txn_p50_ms": e.p50ms, "txn_p90_ms": e.p90ms,
			"settle_p50_ms": e.settleP50ms, "settle_p90_ms": e.settleP90ms,
			"cpu_ms_per_txn": e.cpuMsPerTxn, "allocs_per_txn": e.allocsPerTxn, "alloc_kb_per_txn": e.allocKBPerTxn,
			"setup_s": median(setupS),
		})
		fmt.Fprintf(out, "# settle samples=%d set-ups=%v\n", e.settleSamples, setupS)
		fmt.Fprintf(out, "# not gated: txn_p95_ms=%.4f settle_p95_ms=%.4f\n", e.p95ms, e.settleP95ms)
	}

	fails := w.check()
	c.closeNet()
	fails = append(fails, checkDurability(c)...)
	for _, f := range fails {
		fmt.Fprintln(out, "FAILED CHECK:", f)
	}
	res.Attempted = len(win.samples)
	res.Failed = win.failures() + len(fails)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.trace {
		m := res.Metrics["client.failed_share"]
		m.Value = float64(res.Failed) / float64(max(res.Attempted, 1))
		res.Metrics["client.failed_share"] = m
	}
	res.print(out, defs, len(win.samples))
	fmt.Fprintf(out, "# attempted=%d failed=%d (operation errors %d, unsettled %d, failed checks %d)\n",
		res.Attempted, res.Failed, win.failures()-win.unsettled, win.unsettled, len(fails))
	return res, nil
}

// tracedRun measures a short untraced reference window, then the traced
// window, and derives every per-layer metric.
func tracedRun(cfg *config, r *runner, w workload) (map[string]float64, *window, error) {
	c, rec := r.c, r.c.rec
	ref := r.measure(secondsDur(cfg.seconds * 0.25))
	// measure returns with no operation in flight and every transaction
	// settled, so the counts below belong to whole transactions only.
	m0 := clusterMetrics(c)
	since := now()
	rec.on.Store(true)
	win := r.measure(secondsDur(cfg.seconds * 0.75))
	rec.on.Store(false)
	m1 := clusterMetrics(c)

	rec.mu.Lock()
	spans, payloads := rec.spans, rec.payloads
	rec.mu.Unlock()
	an := analyze(spans, since)
	path := filepath.Join(cfg.dir, "trace_"+cfg.workload+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return nil, nil, err
	}

	n := float64(max(len(win.samples), 1))
	v := make(map[string]float64)
	v["p2p.msgs_per_txn"] = float64(rec.msgs.Load()) / n
	v["p2p.payload_bytes_per_txn"] = float64(rec.payloadBytes.Load()) / n
	v["p2p.request_errors"] = float64(rec.requestErrors.Load())
	v["p2p.transit_us_p50"] = p50us(an.transit)
	var transit time.Duration
	for _, t := range an.transit {
		transit += t
	}
	v["p2p.transit_us_per_txn"] = us(transit) / n
	v["p2p.send_us_p50"] = p50us(an.dur["p2p.send"])
	replayWire(payloads, v)

	for _, call := range []string{"begin", "exec", "call", "commit", "abort", "assemble"} {
		v["core."+call+"_us_p50"] = p50us(an.dur["core."+call])
	}
	v["core.exec_self_us_p50"] = p50us(an.self["core.exec"])
	v["core.serve_self_us_p50"] = p50us(an.self["core.handle.invoke"])
	v["core.commit_handle_us_p50"] = p50us(an.dur["core.handle.commit"])
	v["core.abort_handle_us_p50"] = p50us(an.dur["core.handle.abort"])
	v["core.invocations_per_txn"] = float64(m1.InvocationsMade-m0.InvocationsMade) / n
	v["core.aborts_sent_per_txn"] = float64(m1.AbortsSent-m0.AbortsSent) / n
	v["core.compensations_per_txn"] = float64(m1.Compensations-m0.Compensations) / n
	v["core.nodes_undone_per_txn"] = float64(m1.NodesUndone-m0.NodesUndone) / n
	hits := m1.CacheHits - m0.CacheHits
	lookups := hits + m1.CacheMisses - m0.CacheMisses + m1.CacheWaits - m0.CacheWaits + m1.CacheFetches - m0.CacheFetches
	if lookups > 0 {
		v["core.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	v["core.cache_misses_per_txn"] = float64(m1.CacheMisses-m0.CacheMisses) / n
	v["core.cache_invalidations_per_txn"] = float64(m1.CacheInvalidations-m0.CacheInvalidations) / n

	v["axml.applies_per_txn"] = float64(rec.applies.Load()) / n
	v["axml.apply_us_p50"] = p50us(an.dur["axml.apply"])
	v["axml.apply_self_us_p50"] = p50us(an.self["axml.apply"])
	runProbes(w.probe(), v)

	v["wal.records_per_txn"] = float64(rec.walRecords.Load()) / n
	v["wal.syncs_per_txn"] = float64(rec.walSyncs.Load()) / n
	v["wal.bytes_per_txn"] = float64(rec.walBytes.Load()) / n
	v["wal.txnrecords_calls_per_txn"] = float64(rec.walTxnRecordsCalls.Load()) / n
	v["wal.append_us_p50"] = p50us(an.dur["wal.append"])
	v["wal.sync_us_p50"] = p50us(an.dur["wal.sync"])
	v["wal.sync_us_p95"] = p95us(an.dur["wal.sync"])
	v["wal.txnrecords_us_p50"] = p50us(an.dur["wal.txnrecords"])
	segments, kb := c.walFootprint()
	v["wal.segments_end"], v["wal.dir_kb_end"] = float64(segments), kb

	var late, queue []time.Duration
	byKind := make(map[uint8][]time.Duration)
	for _, s := range win.samples {
		late = append(late, time.Duration(s.start-s.due-s.queued))
		queue = append(queue, time.Duration(s.queued))
		byKind[s.kind] = append(byKind[s.kind], s.latency())
	}
	sorted := win.sortedLatencies()
	v["client.txn_p95_ms"] = ms(des.Percentile(sorted, 0.95))
	v["client.txn_p99_ms"] = ms(des.Percentile(sorted, 0.99))
	v["client.txn_max_ms"] = ms(des.Percentile(sorted, 1))
	v["client.samples"] = float64(len(sorted))
	v["client.late_p95_ms"] = p95us(late) / 1e3
	v["client.queue_p95_ms"] = p95us(queue) / 1e3
	v["client.read_p50_ms"] = p50us(byKind[opRead]) / 1e3
	v["client.assemble_p50_ms"] = p50us(byKind[opAssemble]) / 1e3
	v["client.update_p50_ms"] = p50us(byKind[opUpdate]) / 1e3
	v["client.schedule_hash"] = float64(w.hash())
	if assembles := len(byKind[opAssemble]); assembles > 0 {
		v["core.frag_fetches_per_assemble"] = float64(m1.FragFetches-m0.FragFetches) / float64(assembles)
	}

	var sum float64
	for _, layer := range shareLayers {
		share := float64(an.layerNs[layer]) / float64(max(an.rootNs, 1))
		v["share."+layer] = share
		sum += share
	}
	v["trace.sum_over_e2e"] = sum
	if refP50 := des.Percentile(ref.sortedLatencies(), 0.5); refP50 > 0 {
		v["trace.overhead_pct"] = (float64(des.Percentile(sorted, 0.5))/float64(refP50) - 1) * 100
	}
	v["trace.spans_per_txn"] = float64(len(spans)) / n
	v["trace.orphans_per_txn"] = float64(an.orphans) / n
	return v, win, nil
}

func (w *window) sortedLatencies() []time.Duration {
	lat := make([]time.Duration, len(w.samples))
	for i, s := range w.samples {
		lat[i] = s.latency()
	}
	return sortedCopy(lat)
}
