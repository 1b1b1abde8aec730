package sim

import "testing"

func TestSmokeTreeCommit(t *testing.T) {
	tc := BuildTree(TreeSpec{Depth: 2, Fanout: 2})
	if err := tc.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tc.WorkEntriesCommitted(); got != 7 {
		t.Fatalf("entries = %d, want 7", got)
	}
}

func TestSmokeTreeAbortOnLeafFailure(t *testing.T) {
	tc := BuildTree(TreeSpec{Depth: 2, Fanout: 2})
	tc.Fail[tc.Leaves[len(tc.Leaves)-1]].Store(true)
	if err := tc.Run(); err == nil {
		t.Fatal("expected failure")
	}
	if len(tc.RestoredViolations()) > 0 {
		t.Fatal("not all restored")
	}
}

func TestSmokeTreeForwardRecovery(t *testing.T) {
	tc := BuildTree(TreeSpec{Depth: 2, Fanout: 2, WithHandlers: true})
	tc.Fail[tc.Leaves[0]].Store(true)
	if err := tc.Run(); err != nil {
		t.Fatal(err)
	}
	if tc.TotalMetrics().ForwardRecoveries == 0 {
		t.Fatal("no forward recovery")
	}
}
