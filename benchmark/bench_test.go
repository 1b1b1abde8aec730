package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// smokeConfig is the frozen run shape shrunk to about a second per run:
// fewer warm-up operations, one set-up, small documents, a low open-loop
// rate. Logs stay on disk, under the test's temporary directory.
func smokeConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 1, seconds: 1, trace: trace, dir: t.TempDir(),
		rate: 200, warmup: 20, setups: 1, players: 500,
	}
}

func value(t *testing.T, r *result, name string) float64 {
	t.Helper()
	m, ok := r.Metrics[name]
	if !ok {
		t.Fatalf("metric %s not emitted", name)
	}
	return m.Value
}

func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			timed, err := runWorkload(smokeConfig(t, name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted == 0 {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d", timed.Correct, timed.Attempted, timed.Failed)
			}
			if len(timed.Metrics) != len(endToEndDefs) {
				t.Errorf("timed run emitted %d metrics, want %d", len(timed.Metrics), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				if v := value(t, timed, d.name); !(v > 0) {
					t.Errorf("%s = %v, want above zero", d.name, v)
				}
			}

			traced, err := runWorkload(smokeConfig(t, name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run: attempted=%d failed=%d", traced.Attempted, traced.Failed)
			}
			if len(traced.Metrics) != len(perLayerDefs) {
				t.Errorf("traced run emitted %d metrics, want %d", len(traced.Metrics), len(perLayerDefs))
			}
			for _, d := range perLayerDefs {
				value(t, traced, d.name)
			}
			if sum := value(t, traced, "trace.sum_over_e2e"); math.Abs(sum-1) > 0.05 {
				t.Errorf("layer self times sum to %.3f of the transaction spans, want 1±0.05", sum)
			}
			if o := value(t, traced, "trace.orphans_per_txn"); o != 0 {
				t.Errorf("%.2f spans per transaction found no parent", o)
			}

			// Each workload really bypasses what it claims to.
			comp := value(t, traced, "core.compensations_per_txn")
			if (name == "tree_abort") != (comp > 0) {
				t.Errorf("core.compensations_per_txn = %v", comp)
			}
			switch name {
			case "local_rw":
				if v := value(t, traced, "p2p.msgs_per_txn"); v != 0 {
					t.Errorf("local_rw sent %v messages per transaction, want none", v)
				}
			case "open_mix":
				// The engine still calls Sync on an in-memory log; what must
				// be absent is a log on disk and any time spent syncing it.
				if kb, us := value(t, traced, "wal.dir_kb_end"), value(t, traced, "wal.sync_us_p95"); kb != 0 || us > 50 {
					t.Errorf("open_mix: WAL holds %v KB on disk, Sync p95 %v us; want an in-memory log", kb, us)
				}
				if v := value(t, traced, "core.frag_fetches_per_assemble"); v != openFragments+1 {
					t.Errorf("core.frag_fetches_per_assemble = %v, want %d", v, openFragments+1)
				}
			default:
				if v := value(t, traced, "p2p.msgs_per_txn"); v == 0 {
					t.Errorf("%s sent no messages", name)
				}
			}
		})
	}
}

func TestScheduleHash(t *testing.T) {
	hash := func(name string, seed int64) uint64 {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w.draw(&config{workload: name, seed: seed, seconds: 1, rate: 200, players: 500})
		return w.hash()
	}
	for _, name := range workloadNames {
		if hash(name, 1) != hash(name, 1) {
			t.Errorf("%s: the same seed gave two schedules", name)
		}
	}
	// The tree workloads draw nothing: every transaction is the same.
	for _, name := range []string{"local_rw", "open_mix"} {
		if hash(name, 1) == hash(name, 2) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", name)
		}
	}
}

func TestBlockingPathFollowsSlowestBranch(t *testing.T) {
	// root [0,100] with two parallel children; the one that ends last is the
	// blocking one, the other is hidden behind it.
	spans := []span{
		{Name: "client.txn", Peer: "A", Txn: "T", Start: 0, End: 100, G: 1},
		{Name: "core.exec", Peer: "A", Txn: "T", Start: 10, End: 90, G: 1},
		{Name: "p2p.request", Peer: "A", Txn: "T", Start: 20, End: 40, Kind: "invoke", Subject: "fast", From: "A", To: "B"},
		{Name: "p2p.request", Peer: "A", Txn: "T", Start: 20, End: 80, Kind: "invoke", Subject: "slow", From: "A", To: "C"},
		{Name: "core.handle.invoke", Peer: "C", Txn: "T", Start: 30, End: 70, G: 2, Kind: "invoke", Subject: "slow", From: "A", To: "C"},
		{Name: "wal.append", Peer: "C", Txn: "T", Start: 40, End: 60},
	}
	for i := range spans {
		spans[i].Parent = -1
	}
	a := analyze(spans, 0)
	want := map[string]int64{"client": 20, "core": 20 + 20, "p2p_transit": 20, "wal_append": 20}
	var sum int64
	for layer, ns := range a.layerNs {
		sum += ns
		if ns != want[layer] {
			t.Errorf("layer %s: %d ns on the blocking path, want %d", layer, ns, want[layer])
		}
	}
	if sum != a.rootNs {
		t.Errorf("layers sum to %d, transaction took %d", sum, a.rootNs)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the program in step: the same
// metric names and units, the same workloads, the same window.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var file struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the program's default window is %v", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, the program has %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the program emits %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s], the program emits %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndDefs)
	same("per_layer", file.PerLayer, perLayerDefs)
}
