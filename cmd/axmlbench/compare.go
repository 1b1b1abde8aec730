// Perf regression gate: compare a perf run against a committed baseline and
// fail on >15% regression of the machine-independent derived metrics.
//
// Raw ops/sec numbers shift with the host, so they only warn. What gates are
// the *ratios* the optimizations exist to hold — parallel-materialization
// speedup over sequential, WAL group-commit scaling from one writer to
// eight — and the observability overhead percentages, which compare two
// modes measured on the same machine in the same run and are therefore
// stable across hosts.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"axmltx/internal/sim"
)

// regressionTolerance is how much a gated metric may degrade relative to the
// baseline before the gate fails: speedup ratios may lose 15% of their
// value, overhead percentages may grow 15 percentage points.
const regressionTolerance = 0.15

func loadPerfResults(path string) ([]sim.PerfResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []sim.PerfResult
	if err := json.Unmarshal(blob, &rs); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return rs, nil
}

// opsPerSec returns the named result's throughput, or 0 when absent.
func opsPerSec(rs []sim.PerfResult, name string) float64 {
	for _, r := range rs {
		if r.Name == name {
			return r.OpsPerSec
		}
	}
	return 0
}

// speedupRatio derives fast/slow throughput; 0 when either side is missing.
func speedupRatio(rs []sim.PerfResult, slow, fast string) float64 {
	s, f := opsPerSec(rs, slow), opsPerSec(rs, fast)
	if s == 0 {
		return 0
	}
	return f / s
}

// p50Micros returns the named result's median latency, or 0 when absent.
func p50Micros(rs []sim.PerfResult, name string) float64 {
	for _, r := range rs {
		if r.Name == name {
			return r.P50Micros
		}
	}
	return 0
}

// p50Ratio derives slow/fast median-latency speedup — steadier than the
// throughput ratio for microsecond-scale operations, where a single
// scheduler stall in a short run drags the mean but not the median.
func p50Ratio(rs []sim.PerfResult, slow, fast string) float64 {
	s, f := p50Micros(rs, slow), p50Micros(rs, fast)
	if f == 0 {
		return 0
	}
	return s / f
}

// p99Micros returns the named result's tail latency, or 0 when absent.
func p99Micros(rs []sim.PerfResult, name string) float64 {
	for _, r := range rs {
		if r.Name == name {
			return r.P99Micros
		}
	}
	return 0
}

// loadP99Ratio derives loaded/light client-side p99 of the L1 open-loop
// runs — how much the tail stretches when the arrival rate multiplies. Both
// runs share the machine, so the ratio is host-stable. Unlike the speedup
// ratios, lower is better. 0 when either row is missing.
func loadP99Ratio(rs []sim.PerfResult) float64 {
	light, loaded := p99Micros(rs, "load_l1_light"), p99Micros(rs, "load_l1_loaded")
	if light == 0 {
		return 0
	}
	return loaded / light
}

// dedupeRatio derives uncached/cached upstream-invocation counts of the C1
// cache experiment — the dedupe factor the materialization cache buys. Like
// the speedup ratios it compares two runs of the same machine, so it is
// stable across hosts. 0 when either row is missing.
func dedupeRatio(rs []sim.PerfResult) float64 {
	var cached, uncached float64
	for _, r := range rs {
		switch r.Name {
		case "cache_zipf_cached":
			cached = float64(r.UpstreamCalls)
		case "cache_zipf_uncached":
			uncached = float64(r.UpstreamCalls)
		}
	}
	if cached == 0 {
		return 0
	}
	return uncached / cached
}

// overheads extracts the observability-overhead entries: name → overhead in
// percent (0 when the traced mode was not slower than the untraced
// baseline).
func overheads(rs []sim.PerfResult) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rs {
		if r.SpansEmitted == 0 {
			continue
		}
		ov := -r.VsBaselinePct
		if ov < 0 {
			ov = 0
		}
		out[r.Name] = ov
	}
	return out
}

// runCompare prints one verdict line per gated metric and reports whether
// the gate passed.
func runCompare(current []sim.PerfResult, baselinePath string) bool {
	baseline, err := loadPerfResults(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "axmlbench: compare: %v\n", err)
		return false
	}
	fmt.Printf("\n== COMPARE — perf regression gate vs %s (tolerance %.0f%%) ==\n",
		baselinePath, regressionTolerance*100)
	ok := true
	check := func(metric string, cur, base float64) {
		verdict := "ok"
		if base > 0 && cur < base*(1-regressionTolerance) {
			verdict = "FAIL"
			ok = false
		}
		delta := 0.0
		if base > 0 {
			delta = (cur/base - 1) * 100
		}
		fmt.Printf("%-28s %8.2f  baseline %8.2f  (%+.1f%%)  %s\n", metric, cur, base, delta, verdict)
	}
	check("materialize_speedup_x", speedupRatio(current, "materialize_sequential", "materialize_parallel"),
		speedupRatio(baseline, "materialize_sequential", "materialize_parallel"))
	// Group commit exists so that concurrent commits share an fsync: eight
	// writers must reach a multiple of one writer's throughput. Without
	// fsync sharing the ratio falls below 1.
	check("wal_group_commit_scaling_x", speedupRatio(current, "wal_group_commit_1w", "wal_group_commit"),
		speedupRatio(baseline, "wal_group_commit_1w", "wal_group_commit"))
	check("wal_replay_ckpt_speedup_x", p50Ratio(current, "wal_replay_history", "wal_replay_checkpointed"),
		p50Ratio(baseline, "wal_replay_history", "wal_replay_checkpointed"))
	check("cache_dedupe_ratio_x", dedupeRatio(current), dedupeRatio(baseline))
	// load_p99_ratio is the one lower-is-better gate: the open-loop tail may
	// not stretch much further under the loaded rate than the baseline run's
	// did. The allowance is floored at 2.0x so a very tight baseline (tail
	// barely moved) doesn't turn scheduler noise into a gate.
	if base, cur := loadP99Ratio(baseline), loadP99Ratio(current); base > 0 && cur > 0 {
		allowed := base
		if allowed < 2.0 {
			allowed = 2.0
		}
		verdict := "ok"
		if cur > allowed*(1+regressionTolerance) {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("%-28s %8.2f  baseline %8.2f  (%+.1f%%)  %s\n",
			"load_p99_ratio", cur, base, (cur/base-1)*100, verdict)
	}
	// Absolute floor: the materialization cache exists to collapse the C1
	// zipfian repeat workload by at least 10x upstream invocations.
	if dx := dedupeRatio(current); dx > 0 && dx < 10.0 {
		fmt.Printf("%-28s %8.2f  below the 10.00x floor  FAIL\n", "cache_dedupe_floor", dx)
		ok = false
	}
	// SH1 rows. The scale ratio is sleep-dominated (network latency vs
	// microsecond parse work), so it is host-stable enough for the
	// baseline-relative check; an absolute floor backs it. The placement win
	// compares a network fetch against a local in-memory one, so its
	// magnitude is host noise — it gates on the floor alone.
	check("shard_scale_x", sh1ScaleRatio(current), sh1ScaleRatio(baseline))
	if sx := sh1ScaleRatio(current); sx > 0 && sx < sh1ScaleFloor {
		fmt.Printf("%-28s %8.2f  below the %.2fx floor  FAIL\n", "shard_scale_floor", sx, sh1ScaleFloor)
		ok = false
	}
	if px := sh1PlacementWin(current); px > 0 {
		verdict := "ok"
		if px < sh1PlacementFloor {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("%-28s %8.2f  floor %8.2f  %s\n", "placement_p50_win_x", px, sh1PlacementFloor, verdict)
	}

	curOv, baseOv := overheads(current), overheads(baseline)
	for name, base := range baseOv {
		cur, present := curOv[name]
		if !present {
			fmt.Printf("%-28s missing from current run  FAIL\n", name)
			ok = false
			continue
		}
		// Overheads are percentages already; the tolerance is additive
		// percentage points, and the baseline is floored at 10% so a
		// near-zero baseline doesn't turn measurement noise into a gate.
		allowedBase := base
		if allowedBase < 10 {
			allowedBase = 10
		}
		verdict := "ok"
		if cur > allowedBase+regressionTolerance*100 {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("%-28s %7.1f%%  baseline %7.1f%%  %s\n", name+"_overhead", cur, base, verdict)
	}

	// Raw throughput is machine-dependent: halving is worth a shout, but
	// only as a warning.
	for _, b := range baseline {
		if cur := opsPerSec(current, b.Name); cur > 0 && b.OpsPerSec > 0 && cur < b.OpsPerSec*0.5 {
			fmt.Printf("warning: %s ops/sec %.0f < half of baseline %.0f (machine difference?)\n",
				b.Name, cur, b.OpsPerSec)
		}
	}
	if ok {
		fmt.Println("compare: PASS")
	} else {
		fmt.Println("compare: FAIL — a gated metric regressed beyond tolerance")
	}
	return ok
}
