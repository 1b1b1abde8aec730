package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"axmltx/internal/p2p"
	"axmltx/internal/sim/des"
	"axmltx/internal/wal"
)

// desNoiseMixes are the fault schedules the equivalence sweep layers over
// each tree, rotating by seed — the chaos conformance mixes re-targeted at
// the P0..Pn tree naming. Crash rules stay in the victim-is-its-own-edge
// form (peer=X to=X kind=invoke): those are sequential-safe, so the real
// engine's internal concurrency cannot make the two runners diverge.
var desNoiseMixes = []string{
	"",
	"drop kind=chain p=0.4",
	"dup kind=invoke p=0.3",
	"delay kind=invoke p=0.5 for=1ms",
	"crash peer=P2 kind=invoke to=P2 p=0.5 restart=2",
	"partition from=P1 to=P3 p=0.5",
	"drop kind=abort p=0.3; drop kind=commit p=0.3",
	"hangup kind=invoke p=0.2",
	"drop kind=invoke p=0.15; dup kind=abort p=0.4",
}

// desTrees are the equivalence scenarios: the paper's Figure 1 shape, the
// all-super "sphere" variant, and the scenario-(b) chain with a scripted
// mid-chain crash.
var desTrees = []struct {
	name   string
	depth  int
	fanout int
	super  float64
	script string
}{
	{name: "fig1", depth: 2, fanout: 2},
	{name: "sphere", depth: 2, fanout: 2, super: 1.0},
	{name: "scenario-b", depth: 3, fanout: 1, script: "crash peer=P2 kind=invoke to=P2 times=1 restart=2"},
}

func desSweepSeeds(t *testing.T) int {
	if testing.Short() {
		return 2 * len(desNoiseMixes)
	}
	return 4 * len(desNoiseMixes) // the 36-seed sweep
}

func joinFaults(script, noise string) string {
	switch {
	case script == "":
		return noise
	case noise == "":
		return script
	default:
		return script + "; " + noise
	}
}

// normalizeViolations makes violation messages comparable across runners
// by masking the run-specific transaction ID.
func normalizeViolations(vs []string, txn string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strings.ReplaceAll(v, txn, "<txn>")
	}
	return out
}

// foldSummary renders each peer's folded log state for the transaction —
// committed, compensated, effect count — in sorted peer order.
func foldSummary(states map[p2p.PeerID]wal.TxnState) string {
	ids := make([]p2p.PeerID, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var b strings.Builder
	for _, id := range ids {
		st := states[id]
		fmt.Fprintf(&b, "%s:committed=%t,compensated=%t,effects=%d ", id, st.Committed, st.Compensated, len(st.Effects))
	}
	return b.String()
}

// compareDESPair runs the same (tree shape, seed, faults) configuration
// through the real chaos engine and the discrete-event model and fails the
// test on any disagreement in outcome, injection count, restart count,
// invariant-check results, or any peer's folded log state. corpusLine is the seed-corpus-format repro
// ("<tree> <seed> [faults]") printed on failure — and appended to
// testdata/des_seeds.txt when DES_RECORD=1 is set, mirroring CHAOS_RECORD.
func compareDESPair(t *testing.T, corpusLine string, depth, fanout int, super float64, seed int64, faults string) {
	t.Helper()
	real, err := RunChaosTreeCfg(ChaosTreeConfig{
		Depth: depth, Fanout: fanout, Seed: seed,
		Faults: faults, SuperRatio: super,
	})
	if err != nil {
		t.Fatalf("%s: real runner: %v", corpusLine, err)
	}
	model, err := des.RunTree(des.TreeConfig{
		Depth: depth, Fanout: fanout, Seed: seed, Faults: faults,
	})
	if err != nil {
		t.Fatalf("%s: model runner: %v", corpusLine, err)
	}

	bad := false
	if real.Committed != model.Committed {
		bad = true
		t.Errorf("%s: committed real=%v model=%v", corpusLine, real.Committed, model.Committed)
	}
	if real.Injections != model.Injections {
		bad = true
		t.Errorf("%s: injections real=%d model=%d", corpusLine, real.Injections, model.Injections)
	}
	if real.Restarts != model.Restarts {
		bad = true
		t.Errorf("%s: restarts real=%d model=%d", corpusLine, real.Restarts, model.Restarts)
	}
	rv := normalizeViolations(real.Violations, real.Txn)
	mv := normalizeViolations(model.Violations, model.Txn)
	if fmt.Sprint(rv) != fmt.Sprint(mv) {
		bad = true
		t.Errorf("%s: violations real=%v model=%v", corpusLine, rv, mv)
	}
	if rs, ms := foldSummary(real.States), foldSummary(model.States); rs != ms {
		bad = true
		t.Errorf("%s: per-peer log state real=%s model=%s", corpusLine, rs, ms)
	}
	if bad {
		recordDESSeed(t, corpusLine)
	}
}

// recordDESSeed appends a failing corpus line to testdata/des_seeds.txt
// when DES_RECORD=1, so a sweep failure becomes a permanent regression.
func recordDESSeed(t *testing.T, line string) {
	if os.Getenv("DES_RECORD") == "" {
		return
	}
	f, err := os.OpenFile(filepath.Join("testdata", "des_seeds.txt"),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("DES_RECORD: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, line)
}

// TestDESEquivalence is the contract that makes the discrete-event harness
// trustworthy: for every tree × noise mix × seed, the model run and the
// real-engine run agree on the transaction outcome, the injection count,
// the restart count, and the invariant-check results.
func TestDESEquivalence(t *testing.T) {
	seeds := desSweepSeeds(t)
	for _, tree := range desTrees {
		tree := tree
		t.Run(tree.name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				faults := joinFaults(tree.script, desNoiseMixes[seed%len(desNoiseMixes)])
				line := fmt.Sprintf("%s %d %s", tree.name, seed, faults)
				compareDESPair(t, strings.TrimSpace(line),
					tree.depth, tree.fanout, tree.super, int64(seed), faults)
			}
		})
	}
}
