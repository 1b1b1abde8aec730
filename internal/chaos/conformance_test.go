package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"axmltx/internal/p2p"
)

// noiseMixes are the fault schedules the sweep layers over each scenario's
// scripted fault, rotating by seed. Index 0 is the canonical (noise-free)
// run; the rest cover every Fault kind the injector implements.
var noiseMixes = []string{
	"",
	"drop kind=chain p=0.4",
	"dup kind=result p=0.5; dup kind=commit p=0.5",
	"delay kind=invoke p=0.5 for=1ms; delay kind=result p=0.5 for=1ms",
	"crash peer=AP4 kind=invoke to=AP4 p=0.5 restart=2",
	"partition from=AP2 to=AP4 p=0.5",
	"drop kind=abort p=0.3; drop kind=commit p=0.3",
	"reorder kind=stream p=0.5; hangup kind=invoke p=0.2",
	"drop kind=invoke p=0.15; dup kind=abort p=0.4",
}

// sweepSeeds returns how many seeds the sweep covers per scenario. The
// acceptance floor is 32; short mode trims to keep the suite inside its CI
// budget while still crossing every noise mix at least once.
func sweepSeeds(t *testing.T) int {
	if testing.Short() {
		return 2 * len(noiseMixes)
	}
	return 4 * len(noiseMixes) // 36 seeds per scenario
}

// TestConformanceSweep is the tentpole conformance suite: every scenario ×
// a seed sweep, each seed under a rotating noise mix. Safety (replayable
// logs, reverse compensation, terminal completeness, abort restoration)
// must hold on every run; canonical runs additionally assert the paper's
// outcome. Each failure prints its one-line repro, and with CHAOS_RECORD=1
// is appended to testdata/chaos_seeds.txt for the regression harness.
func TestConformanceSweep(t *testing.T) {
	seeds := sweepSeeds(t)
	var recMu sync.Mutex
	record := func(rep *Report) {
		if os.Getenv("CHAOS_RECORD") == "" {
			return
		}
		recMu.Lock()
		defer recMu.Unlock()
		f, err := os.OpenFile(filepath.Join("testdata", "chaos_seeds.txt"),
			os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("CHAOS_RECORD: %v", err)
			return
		}
		defer f.Close()
		fmt.Fprintf(f, "%s %d %s\n", rep.Scenario, rep.Seed, rep.Faults)
	}

	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				faults := noiseMixes[seed%len(noiseMixes)]
				rep, err := Run(Config{Scenario: sc, Seed: int64(seed), Faults: faults})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(rep.Violations) > 0 {
					for _, v := range rep.Violations {
						t.Errorf("seed %d: %s", seed, v)
					}
					t.Errorf("seed %d repro: %s", seed, rep.Repro())
					record(rep)
				}
			}
		})
	}
}

// TestSweepSameSeedSameInjections pins the determinism contract at the run
// level: the same (scenario, seed, faults) triple produces the same
// injection log, which is what makes one-line repros possible.
func TestSweepSameSeedSameInjections(t *testing.T) {
	cfg := Config{Scenario: "fig1", Seed: 11, Faults: "drop kind=invoke p=0.5"}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injections != b.Injections || a.Committed != b.Committed {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v injections/committed",
			a.Injections, a.Committed, b.Injections, b.Committed)
	}
	if len(a.Violations)+len(b.Violations) > 0 {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
}

// TestDepthSelectorMatches checks the harness itself: a depth= rule must see
// the chain inside invoke payloads. On Figure 1 S3 and S2 are invoked by the
// origin (depth 1), S4 and S5 by AP3 (depth 2), S6 by AP5 (depth 3). A
// selector that cannot decode the payload reads every depth as 0 and its
// rules silently never fire.
func TestDepthSelectorMatches(t *testing.T) {
	rules, err := ParseRules("hangup service=S5 depth=2; hangup service=S3 depth=2; " +
		"delay service=S3 depth=1 for=1us; delay depth=1 for=1us")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1, rules, nil)
	runFig1(NewCluster(inj), "fig1")

	matches := func(rule int) (n int) {
		inj.mu.Lock()
		defer inj.mu.Unlock()
		for _, c := range inj.counts[rule] {
			n += c
		}
		return n
	}
	if n := matches(0); n < 1 {
		t.Errorf("%q matched %d messages, want >= 1 (S5 is invoked at depth 2)", rules[0], n)
	}
	if n := matches(1); n != 0 {
		t.Errorf("%q matched %d messages, want 0 (S3 is invoked at depth 1)", rules[1], n)
	}
	if n := matches(2); n < 1 {
		t.Errorf("%q matched %d messages, want >= 1", rules[2], n)
	}
	// The kind-less rule meets every message of the run — the abort cascade
	// the hangup sets off included — and may match (hence fire on) invokes
	// only.
	if n := matches(3); n < 2 {
		t.Errorf("%q matched %d messages, want at least the S3 and S5 invocations", rules[3], n)
	}
	for _, in := range inj.Injections() {
		if in.Kind != p2p.KindInvoke {
			t.Errorf("depth-constrained rule %q fired on a %s message", rules[in.Rule], in.Kind)
		}
	}
}
