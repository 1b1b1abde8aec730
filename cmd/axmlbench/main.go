// Command axmlbench runs the experiment suite of EXPERIMENTS.md and prints
// one table per experiment. Without arguments it runs everything; pass
// experiment IDs (f1 f2 e1 e2 e3 e4 e5 e6 e7 e8 a1 m1 c1 perf obs chaos s1 l1
// sh1) to select a subset, either positionally or via -run.
//
//	go run ./cmd/axmlbench          # full suite
//	go run ./cmd/axmlbench e3 e5    # selected experiments
//	go run ./cmd/axmlbench perf     # hot-path + obs-overhead suite, writes JSON
//	go run ./cmd/axmlbench -run perf -quick -json bench_ci.json
//	go run ./cmd/axmlbench -compare ci/bench_baseline.json -json bench_ci.json
//	go run ./cmd/axmlbench obs      # traced run, writes -traceout spans
//	go run ./cmd/axmlbench -run chaos -scenario b -seed 6 -traceout b6.jsonl
//	go run ./cmd/axmlbench -run s1 -json s1.json             # 1k peers, 1M txns
//	go run ./cmd/axmlbench -run s1 -quick -availfloor 0.5    # CI smoke
//	go run ./cmd/axmlbench -run l1 -json l1.json             # open-loop load + plane cross-check
//	go run ./cmd/axmlbench -run l1 -quick -availfloor 0.9    # CI smoke
//	go run ./cmd/axmlbench -run sh1 -json sh1.json           # sharding + placement
//	go run ./cmd/axmlbench -run sh1 -quick                   # CI smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"axmltx/internal/chaos"
	"axmltx/internal/obs"
	"axmltx/internal/sim"
)

// experimentIDs lists every experiment ID main dispatches.
var experimentIDs = []string{
	"f1", "f2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "a1", "e8", "m1", "c1",
	"perf", "obs", "chaos", "s1", "l1", "sh1",
}

// unknownIDs returns the selected IDs that name no experiment, sorted.
func unknownIDs(selected map[string]bool) []string {
	var out []string
	for id := range selected {
		if !slices.Contains(experimentIDs, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func main() {
	run := flag.String("run", "", "comma-separated experiment IDs to run (same as positional args)")
	seed := flag.Int64("seed", 1, "base random seed")
	trials := flag.Int("trials", 20, "trials per randomized data point")
	perfOut := flag.String("perfout", "BENCH_PR1.json", "output file for the perf experiment")
	jsonOut := flag.String("json", "", "perf: JSON output file; takes precedence over -perfout (schema: BENCH_PR1.json keys plus spans_emitted/spans_kept/vs_baseline_pct on the obs-overhead entries)")
	quick := flag.Bool("quick", false, "perf: reduced parameters for CI smoke runs")
	traceOut := flag.String("traceout", "TRACE.jsonl", "span output file (JSON Lines) for the obs experiment; when set explicitly, chaos runs also write their traces here")
	metricsOut := flag.String("metricsout", "", "Prometheus-text metrics output file for the obs experiment (default: stdout summary only)")
	scenario := flag.String("scenario", "", "chaos: scenario to replay (fig1 fig1f sphere a b bg c d cc sh; default: sweep all)")
	faults := flag.String("faults", "", "chaos: noise fault schedule in the rule DSL")
	compare := flag.String("compare", "", "perf regression gate: baseline JSON to compare against; exits 1 when a derived metric regresses >15%. Compares the perf run's fresh results, or the file named by -json when perf is not selected")
	peers := flag.Int("peers", 0, "s1/l1: cluster size (s1 default 1000, or 200 with -quick; l1 default 5, or 3 with -quick)")
	txns := flag.Int("txns", 0, "s1/l1: offered transactions per run (s1 default 1000000, or 50000 with -quick)")
	rate := flag.Float64("rate", 0, "s1: arrivals per virtual second; l1: loaded-run target ops/sec")
	churn := flag.String("churn", "", "s1: churn schedule DSL, e.g. \"0s: crash=2 restart=5s; 25s: crash=10\"")
	availFloor := flag.Float64("availfloor", 0, "s1/l1: exit 1 when availability falls below this floor (0 = disabled)")
	flag.Parse()
	traceOutSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "traceout" {
			traceOutSet = true
		}
	})

	selected := map[string]bool{}
	for _, a := range flag.Args() {
		selected[strings.ToLower(a)] = true
	}
	for _, a := range strings.Split(*run, ",") {
		if a = strings.TrimSpace(a); a != "" {
			selected[strings.ToLower(a)] = true
		}
	}
	if bad := unknownIDs(selected); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "axmlbench: unknown experiment %s; valid IDs: %s\n",
			strings.Join(bad, ", "), strings.Join(experimentIDs, " "))
		os.Exit(2)
	}
	// -compare alone means "gate only": don't fall into the run-everything
	// default.
	compareOnly := *compare != "" && len(selected) == 0
	want := func(id string) bool { return !compareOnly && (len(selected) == 0 || selected[id]) }

	if want("f1") {
		runF1()
	}
	if want("f2") {
		runF2()
	}
	if want("e1") {
		runE1(*seed)
	}
	if want("e2") {
		runE2()
	}
	if want("e3") {
		runE3(*seed)
	}
	if want("e4") {
		runE4(*seed, *trials)
	}
	if want("e5") {
		runE5(*seed)
	}
	if want("e6") {
		runE6(*seed)
	}
	if want("e7") {
		runE7(*seed, *trials)
	}
	if want("a1") {
		runA1(*seed)
	}
	if want("e8") {
		runE8()
	}
	if want("m1") {
		runM1()
	}
	if want("c1") {
		runC1(*seed)
	}
	var perfResults []sim.PerfResult
	if selected["perf"] {
		out := *perfOut
		if *jsonOut != "" {
			out = *jsonOut
		}
		perfResults = runPerf(out, *quick)
	}
	if selected["obs"] {
		runObs(*seed, *traceOut, *metricsOut)
	}
	if selected["chaos"] {
		chaosTrace := ""
		if traceOutSet {
			chaosTrace = *traceOut
		}
		runChaos(*scenario, *seed, *faults, chaosTrace)
	}
	if selected["s1"] {
		// s1 writes its own -json schema, so it only claims the flag when
		// the perf experiment (which shares it) is not also selected.
		s1JSON := *jsonOut
		if selected["perf"] {
			s1JSON = ""
		}
		if !runS1(*seed, *quick, *peers, *txns, *rate, *churn, *availFloor, s1JSON) {
			os.Exit(1)
		}
	}
	if selected["l1"] {
		// Like s1, l1 writes its own -json schema and only claims the flag
		// when neither perf nor s1 (earlier claimants) is selected.
		l1JSON := *jsonOut
		if selected["perf"] || selected["s1"] {
			l1JSON = ""
		}
		if !runL1(*seed, *quick, *peers, *txns, *rate, *availFloor, l1JSON) {
			os.Exit(1)
		}
	}
	if selected["sh1"] {
		// sh1 shares the -json flag with perf/s1/l1 and is the last claimant.
		sh1JSON := *jsonOut
		if selected["perf"] || selected["s1"] || selected["l1"] {
			sh1JSON = ""
		}
		if !runSH1(*quick, sh1JSON) {
			os.Exit(1)
		}
	}
	if *compare != "" {
		if perfResults == nil {
			if *jsonOut == "" {
				fmt.Fprintln(os.Stderr, "axmlbench: -compare needs either the perf experiment in the same run or -json naming an existing results file")
				os.Exit(2)
			}
			var err error
			perfResults, err = loadPerfResults(*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "axmlbench: %v\n", err)
				os.Exit(2)
			}
		}
		if !runCompare(perfResults, *compare) {
			os.Exit(1)
		}
	}
}

// runChaos replays one chaos conformance run (when -scenario is set) or
// sweeps every scenario at the given seed. Any invariant violation prints a
// one-line repro and exits nonzero, so the command doubles as the repro tool
// the chaos test suite points at when a sweep seed fails. With traceOut the
// full span stream of every run (protocol + injected fault spans) lands in
// one JSON Lines file, ready for axmltrace critical/diff.
func runChaos(scenario string, seed int64, faults string, traceOut string) {
	scenarios := chaos.Scenarios()
	if scenario != "" {
		scenarios = []string{scenario}
	}
	var sink obs.Sink
	var jsonl *obs.JSONL
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: create %s: %v\n", traceOut, err)
			os.Exit(1)
		}
		defer f.Close()
		jsonl = obs.NewJSONL(f)
		sink = jsonl
	}
	reports := make([]*chaos.Report, 0, len(scenarios))
	for _, sc := range scenarios {
		rep, err := chaos.Run(chaos.Config{Scenario: sc, Seed: seed, Faults: faults, Sink: sink})
		if err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: chaos %s: %v\n", sc, err)
			os.Exit(2)
		}
		reports = append(reports, rep)
	}
	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: flush %s: %v\n", traceOut, err)
			os.Exit(1)
		}
		fmt.Printf("chaos trace -> %s\n", traceOut)
	}
	table("CHAOS — fault-injected conformance (seed "+fmt.Sprint(seed)+")",
		"scenario\tcommitted\tcanonical\tinjections\trestarts\treused\tviolations",
		func(w *tabwriter.Writer) {
			for _, r := range reports {
				fmt.Fprintf(w, "%s\t%t\t%t\t%d\t%d\t%d\t%d\n",
					r.Scenario, r.Committed, r.Canonical, r.Injections, r.Restarts, r.WorkReused, len(r.Violations))
			}
		})
	failed := false
	for _, r := range reports {
		for _, v := range r.Violations {
			failed = true
			fmt.Fprintf(os.Stderr, "VIOLATION %s seed=%d: %s\n", r.Scenario, r.Seed, v)
		}
		if len(r.Violations) > 0 {
			fmt.Fprintf(os.Stderr, "repro: %s\n", r.Repro())
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runObs runs one committed and one aborted tree transaction with the full
// observability layer attached, demonstrating that the simulation emits the
// same axml_* metrics schema and span trees as live peers: spans go to
// -traceout as JSON Lines, metrics to -metricsout in Prometheus text format.
func runObs(seed int64, traceOut, metricsOut string) {
	f, err := os.Create(traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "axmlbench: create %s: %v\n", traceOut, err)
		os.Exit(1)
	}
	defer f.Close()
	jsonl := obs.NewJSONL(f)
	ring := obs.NewRing(0)
	reg := obs.NewRegistry()

	tc := sim.BuildTree(sim.TreeSpec{
		Depth: 3, Fanout: 2, Seed: seed,
		TraceSink: obs.Multi{ring, jsonl}, MetricsRegistry: reg,
	})
	commitErr := tc.Run()
	// Second transaction: a leaf fails, the tree backward-recovers.
	tc.Fail[tc.Leaves[len(tc.Leaves)-1]].Store(true)
	abortErr := tc.Run()

	kinds := map[string]int{}
	for _, s := range ring.Spans() {
		kinds[s.Kind]++
	}
	table("OBS — invocation-tree tracing and metrics export",
		"span kind\tcount",
		func(w *tabwriter.Writer) {
			for _, k := range []string{obs.KindTxn, obs.KindExec, obs.KindInvoke, obs.KindServe,
				obs.KindRetry, obs.KindCommit, obs.KindAbort, obs.KindCompensate} {
				if kinds[k] > 0 {
					fmt.Fprintf(w, "%s\t%d\n", k, kinds[k])
				}
			}
		})
	fmt.Printf("committed txn err=%v, failing txn aborted=%t, %d spans -> %s\n",
		commitErr, abortErr != nil, ring.Total(), traceOut)
	if err := jsonl.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "axmlbench: flush %s: %v\n", traceOut, err)
		os.Exit(1)
	}
	if metricsOut != "" {
		mf, err := os.Create(metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: create %s: %v\n", metricsOut, err)
			os.Exit(1)
		}
		defer mf.Close()
		if err := reg.WritePrometheus(mf); err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: write metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics -> %s\n", metricsOut)
	}
}

// runPerf runs the hot-path throughput suite (parallel materialization, WAL
// group commit, pooled serialization) plus the observability-overhead suite
// (the same tree transaction with tracing off / adaptive sampling / full
// tracing) and writes the results as JSON.
func runPerf(out string, quick bool) []sim.PerfResult {
	var results []sim.PerfResult
	if quick {
		results = append(sim.RunPerfSuiteQuick(), sim.RunObsOverhead(2, 2, 30)...)
	} else {
		results = append(sim.RunPerfSuite(), sim.RunObsOverhead(3, 2, 60)...)
	}
	table("PERF — hot-path throughput and observability overhead",
		"name\tops\tops/sec\tp50 µs\tp99 µs\tallocs/op\tspans\tkept\tvs baseline",
		func(w *tabwriter.Writer) {
			for _, r := range results {
				vs := ""
				if r.SpansEmitted > 0 {
					vs = fmt.Sprintf("%+.1f%%", r.VsBaselinePct)
				}
				fmt.Fprintf(w, "%s\t%d\t%.1f\t%.0f\t%.0f\t%.1f\t%d\t%d\t%s\n",
					r.Name, r.Ops, r.OpsPerSec, r.P50Micros, r.P99Micros, r.AllocsPerOp,
					r.SpansEmitted, r.SpansKept, vs)
			}
		})
	speedup := func(slow, fast string) float64 {
		var s, f float64
		for _, r := range results {
			switch r.Name {
			case slow:
				s = r.OpsPerSec
			case fast:
				f = r.OpsPerSec
			}
		}
		if s == 0 {
			return 0
		}
		return f / s
	}
	fmt.Printf("\nmaterialize speedup: %.2fx   wal group-commit scaling over one writer: %.2fx\n",
		speedup("materialize_sequential", "materialize_parallel"),
		speedup("wal_group_commit_1w", "wal_group_commit"))
	fmt.Printf("wal checkpointed-replay speedup: %.2fx (vs empty restart: %.2fx)\n",
		speedup("wal_replay_history", "wal_replay_checkpointed"),
		speedup("wal_replay_checkpointed", "wal_replay_empty"))
	fmt.Printf("cache dedupe ratio: %.2fx fewer upstream calls than uncached\n", dedupeRatio(results))
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "axmlbench: write %s: %v\n", out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	return results
}

// runM1 reports gossip membership costs: rounds and messages to a fully
// converged member view + replica catalog from a ring-seeded bootstrap, then
// rounds and messages until a silent disconnect is detected cluster-wide.
func runM1() {
	table("M1 — gossip membership: bootstrap convergence and failure detection",
		"peers\tconverged\trounds\tmsgs\tdetected\tdetect rounds\tdetect msgs",
		func(w *tabwriter.Writer) {
			for _, n := range []int{8, 16, 32} {
				r := sim.RunMembership(n, 0)
				fmt.Fprintf(w, "%d\t%t\t%d\t%d\t%t\t%d\t%d\n",
					r.Peers, r.Converged, r.ConvergeRounds, r.MsgsConverge, r.Detected, r.DetectRounds, r.MsgsDetect)
			}
		})
}

// runC1 reports the materialization-cache dedupe experiment: a 3-peer
// zipfian repeat workload against one provider, cached (semantic cache +
// gossip call advertisements) vs uncached (the paper's lazy evaluation,
// one upstream invocation per materialization).
func runC1(seed int64) {
	table("C1 — materialization cache: zipfian repeat workload, upstream dedupe",
		"mode\tclients\tkeys\tops\tupstream calls\tops/sec\tp50 µs\tp99 µs",
		func(w *tabwriter.Writer) {
			for _, cached := range []bool{true, false} {
				r := sim.RunCacheExperiment(3, 16, 240, cached, seed)
				mode := "uncached"
				if cached {
					mode = "cached"
				}
				fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.1f\t%.0f\t%.0f\n",
					mode, 3, 16, r.Ops, r.UpstreamCalls, r.OpsPerSec, r.P50Micros, r.P99Micros)
			}
		})
}

func runE8() {
	table("E8 — disconnection detection latency (1ms link latency, 10ms probe/stream interval)",
		"detector\tdetected\telapsed",
		func(w *tabwriter.Writer) {
			for _, det := range []string{"active-send", "ping", "stream-silence"} {
				r := sim.RunE8(det, time.Millisecond, 10*time.Millisecond)
				fmt.Fprintf(w, "%s\t%t\t%s\n", r.Detector, r.Detected, r.Elapsed.Round(100*time.Microsecond))
			}
		})
}

func runA1(seed int64) {
	table("A1 — ablation: failure-free message overhead of the recovery machinery",
		"depth\tchaining\tpeer-independent\tinvoke msgs\tchain msgs\tcompdef msgs\ttotal msgs",
		func(w *tabwriter.Writer) {
			for _, depth := range []int{2, 3, 4} {
				for _, cfg := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
					r := sim.RunOverhead(depth, 2, cfg[0], cfg[1], seed)
					fmt.Fprintf(w, "%d\t%t\t%t\t%d\t%d\t%d\t%d\n",
						r.Depth, r.Chaining, r.PeerIndependent, r.InvokeMsgs, r.ChainMsgs, r.CompDefMsgs, r.Messages)
				}
			}
		})
}

func table(title string, header string, rows func(w *tabwriter.Writer)) {
	fmt.Printf("\n== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	rows(w)
	w.Flush()
}

func runF1() {
	table("F1 — Figure 1: nested recovery (AP5 fails during S5)",
		"mode\tcommitted\trestored\tabort msgs\ttotal msgs\tnodes undone\tforward recoveries",
		func(w *tabwriter.Writer) {
			for _, forward := range []bool{false, true} {
				r := sim.RunF1(forward)
				fmt.Fprintf(w, "%s\t%t\t%t\t%d\t%d\t%d\t%d\n",
					r.Mode, r.Committed, r.AllRestored, r.AbortMessages, r.TotalMessages, r.NodesUndone, r.ForwardRecoveries)
			}
		})
}

func runF2() {
	table("F2 — Figure 2: peer disconnection scenarios (a–d), chaining vs traditional",
		"scenario\tchaining\trecovered\tcommitted\tredirects\treused\tnodes lost\tnodes undone\tmsgs",
		func(w *tabwriter.Writer) {
			for _, sc := range []string{"a", "b", "c", "d"} {
				for _, chaining := range []bool{true, false} {
					r := sim.RunF2(sc, chaining)
					fmt.Fprintf(w, "%s\t%t\t%t\t%t\t%d\t%d\t%d\t%d\t%d\n",
						r.Scenario, r.Chaining, r.Recovered, r.Committed, r.Redirects, r.WorkReused, r.NodesLost, r.NodesUndone, r.Messages)
				}
			}
		})
}

func runE1(seed int64) {
	table("E1 — dynamic compensation over an operation mix (30/20/30/20 ins/del/rep/query)",
		"ops\tlog recs/op\tlog B/op\tmaterializations\tcomp actions\tstatically compensable\trestored",
		func(w *tabwriter.Writer) {
			for _, ops := range []int{10, 50, 200, 1000} {
				r := sim.RunE1(sim.OpsSpec{
					Players: 50, Ops: ops,
					Insert: 0.3, Delete: 0.2, Replace: 0.3, Query: 0.2, Seed: seed,
				})
				fmt.Fprintf(w, "%d\t%.2f\t%.0f\t%d\t%d\t%d/%d\t%t\n",
					r.Ops, float64(r.LogRecords)/float64(r.Ops), float64(r.LogBytes)/float64(r.Ops),
					r.Materializations, r.CompActions, r.StaticCompensable, r.Ops, r.Restored)
			}
		})
}

func runE2() {
	table("E2 — lazy vs eager query evaluation (k embedded calls, query needs j)",
		"k\tj\tlazy calls\teager calls\tlazy affected\teager affected",
		func(w *tabwriter.Writer) {
			const k = 16
			for _, j := range []int{1, 2, 4, 8, 16} {
				r := sim.RunE2(k, j)
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
					r.EmbeddedCalls, r.QueryNeeds, r.LazyInvoked, r.EagerInvoked, r.LazyAffected, r.EagerAffected)
			}
		})
}

func runE3(seed int64) {
	table("E3 — nested recovery scaling (leaf failure; forward via replica vs backward abort)",
		"depth\tfanout\tpeers\tmode\tcommitted\tmsgs\tabort msgs\tnodes undone\tentries kept",
		func(w *tabwriter.Writer) {
			for _, depth := range []int{1, 2, 3, 4, 5} {
				for _, forward := range []bool{false, true} {
					r := sim.RunE3(depth, 2, forward, seed)
					fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%t\t%d\t%d\t%d\t%d\n",
						r.Depth, r.Fanout, r.Peers, r.Mode, r.Committed, r.Messages, r.AbortMessages, r.NodesUndone, r.EntriesCommitted)
				}
			}
		})
}

func runE4(seed int64, trials int) {
	table("E4 — peer-independent vs peer-dependent compensation under churn (intermediates die before abort)",
		"disconnect p\tmode\tsurvivors restored\tfully compensated",
		func(w *tabwriter.Writer) {
			for _, p := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
				for _, indep := range []bool{false, true} {
					mode := "dependent"
					if indep {
						mode = "independent"
					}
					r := sim.RunE4(3, p, indep, trials, seed)
					fmt.Fprintf(w, "%.2f\t%s\t%.2f\t%d/%d\n",
						p, mode, r.SurvivorRestoredFrac, r.FullyCompensated, r.Trials)
				}
			}
		})
}

func runE5(seed int64) {
	table("E5 — disconnection recovery: chaining vs traditional (internal peer dies mid-txn)",
		"depth\tmode\tcommitted\torphaned entries\tnodes undone\treused\tmsgs",
		func(w *tabwriter.Writer) {
			for _, depth := range []int{2, 3, 4} {
				for _, chaining := range []bool{true, false} {
					mode := "traditional"
					if chaining {
						mode = "chaining"
					}
					r := sim.RunE5(depth, 2, chaining, seed)
					fmt.Fprintf(w, "%d\t%s\t%t\t%d\t%d\t%d\t%d\n",
						r.Depth, mode, r.Committed, r.OrphanedEntries, r.NodesUndone, r.WorkReused, r.Messages)
				}
			}
		})
}

func runE6(seed int64) {
	table("E6 — recovery cost by affected nodes (forward = undo failing leaf only)",
		"payload nodes\twork entries\tbackward undone\tforward undone\tforward redone",
		func(w *tabwriter.Writer) {
			for _, payload := range []int{1, 4, 16, 64} {
				r := sim.RunE6(payload, 2, seed)
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\n",
					r.PayloadNodes, r.WorkEntries, r.BackwardUndone, r.ForwardUndone, r.ForwardRedone)
			}
		})
}

func runE7(seed int64, trials int) {
	table("E7 — spheres of atomicity (all non-super peers disconnect before abort)",
		"super ratio\tguaranteed frac\tobserved atomic frac",
		func(w *tabwriter.Writer) {
			for _, s := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0} {
				r := sim.RunE7(s, trials, seed)
				fmt.Fprintf(w, "%.2f\t%.2f\t%.2f\n", r.SuperRatio, r.GuaranteedFrac, r.AtomicFrac)
			}
		})
}
