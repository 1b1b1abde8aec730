package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"axmltx/internal/chaos"
)

// TestPropertyAtomicityUnderRandomFailure is the central invariant of the
// framework: for ANY tree shape and ANY failing peer, an aborted
// transaction leaves every work document exactly as it was.
func TestPropertyAtomicityUnderRandomFailure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 1 + rng.Intn(3)
		fanout := 1 + rng.Intn(3)
		tc := BuildTree(TreeSpec{
			Depth: depth, Fanout: fanout,
			WorkEntries:  1 + rng.Intn(2),
			PayloadNodes: 1 + rng.Intn(4),
			Seed:         seed,
		})
		// Fail any peer's local work, including possibly the origin's.
		victim := tc.Order[rng.Intn(len(tc.Order))]
		tc.Fail[victim].Store(true)
		if err := tc.Run(); err == nil {
			// The origin's own failure aborts before Exec returns an
			// error only if the origin was the victim of a query the
			// origin itself runs — Run always errors when any work fails.
			t.Logf("seed %d: expected failure with victim %s", seed, victim)
			return false
		}
		if len(tc.RestoredViolations()) > 0 {
			t.Logf("seed %d: victim %s: not all restored (depth=%d fanout=%d)", seed, victim, depth, fanout)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCommitKeepsAllWork: with no failures, every peer's work is
// present after commit, and nothing was compensated.
func TestPropertyCommitKeepsAllWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 1 + rng.Intn(3)
		fanout := 1 + rng.Intn(3)
		entries := 1 + rng.Intn(2)
		tc := BuildTree(TreeSpec{Depth: depth, Fanout: fanout, WorkEntries: entries, Seed: seed})
		if err := tc.Run(); err != nil {
			t.Logf("seed %d: run failed: %v", seed, err)
			return false
		}
		if got, want := tc.WorkEntriesCommitted(), tc.PeerCount()*entries; got != want {
			t.Logf("seed %d: entries = %d, want %d", seed, got, want)
			return false
		}
		return tc.TotalMetrics().Compensations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyForwardRecoveryPreservesSiblingWork: when a leaf fails and
// handlers recover it on a replica, no sibling's work is disturbed.
func TestPropertyForwardRecoveryPreservesSiblingWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 1 + rng.Intn(3)
		fanout := 1 + rng.Intn(3)
		tc := BuildTree(TreeSpec{Depth: depth, Fanout: fanout, Seed: seed, WithHandlers: true})
		victim := tc.Leaves[rng.Intn(len(tc.Leaves))]
		tc.Fail[victim].Store(true)
		if err := tc.Run(); err != nil {
			t.Logf("seed %d: forward recovery failed: %v", seed, err)
			return false
		}
		// Every main peer except the victim keeps its work; the victim's
		// entry was redone at its replica, so the total count (which
		// includes replica documents) equals the peer count.
		entries := tc.WorkEntriesCommitted()
		want := tc.PeerCount()
		if entries != want {
			t.Logf("seed %d: entries=%d want %d (victim %s)", seed, entries, want, victim)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompensationReverseOrder: for ANY tree shape and ANY failing
// peer, every compensation bracket in every peer's WAL undoes its epoch's
// effects in exact reverse order, the log stays replay-consistent, and the
// aborted transaction ends fully compensated everywhere — the §3.1 Sagas
// discipline as a machine-checked property (table of shapes × random
// victims, driven by the quick seed).
func TestPropertyCompensationReverseOrder(t *testing.T) {
	shapes := []struct {
		name          string
		depth, fanout int
		entries       int
	}{
		{"chain", 3, 1, 2},
		{"star", 1, 3, 1},
		{"bushy", 2, 2, 2},
		{"deep", 3, 2, 1},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				tc := BuildTree(TreeSpec{
					Depth: shape.depth, Fanout: shape.fanout,
					WorkEntries: shape.entries, Seed: seed,
				})
				victim := tc.Order[rng.Intn(len(tc.Order))]
				tc.Fail[victim].Store(true)
				txc, err := tc.RunNoCommit()
				if err == nil {
					t.Logf("seed %d: expected failure with victim %s", seed, victim)
					return false
				}
				if err := tc.Origin.Abort(context.Background(), txc); err != nil {
					t.Logf("seed %d: abort: %v", seed, err)
					return false
				}
				for id, log := range tc.Logs {
					if v := chaos.LogViolations(id, log, txc.ID); len(v) > 0 {
						t.Logf("seed %d: %v", seed, v)
						return false
					}
				}
				return len(tc.RestoredViolations()) == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropertyE4IndependentDominatesDependent: at every churn probability
// peer-independent compensation restores at least as much as
// peer-dependent.
func TestPropertyE4IndependentDominatesDependent(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := float64(pRaw%101) / 100
		dep := RunE4(2, p, false, 3, seed)
		ind := RunE4(2, p, true, 3, seed)
		return ind.SurvivorRestoredFrac >= dep.SurvivorRestoredFrac-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
