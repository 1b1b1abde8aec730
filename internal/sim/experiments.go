package sim

import (
	"context"
	"fmt"
	"math/rand"

	"axmltx/internal/core"
	"axmltx/internal/p2p"
)

// E3Row is one data point of experiment E3 (nested recovery scaling).
type E3Row struct {
	Depth, Fanout, Peers int
	Mode                 string // "forward" or "backward"
	Committed            bool
	Restored             bool // failing branch compensated exactly
	Messages             int64
	AbortMessages        int64
	NodesUndone          int64
	ForwardRecoveries    int64
	EntriesCommitted     int
}

// RunE3 builds a (depth × fanout) tree, fails the last leaf's local work,
// and recovers either forward (handlers + replicas) or backward (full
// abort).
func RunE3(depth, fanout int, forward bool, seed int64) E3Row {
	tc := BuildTree(TreeSpec{Depth: depth, Fanout: fanout, Seed: seed, WithHandlers: forward})
	leaf := tc.Leaves[len(tc.Leaves)-1]
	tc.Fail[leaf].Store(true)

	err := tc.Run()
	m := tc.TotalMetrics()
	stats := tc.Net.Stats()
	row := E3Row{
		Depth: depth, Fanout: fanout, Peers: tc.PeerCount(),
		Committed:         err == nil,
		Messages:          stats.Total,
		AbortMessages:     stats.ByKind[p2p.KindAbort],
		NodesUndone:       m.NodesUndone,
		ForwardRecoveries: m.ForwardRecoveries,
		EntriesCommitted:  tc.WorkEntriesCommitted(),
	}
	if forward {
		row.Mode = "forward"
		// Forward recovery: the failing leaf's partial work is undone, the
		// rest commits.
		row.Restored = err == nil
	} else {
		row.Mode = "backward"
		row.Restored = len(tc.RestoredViolations()) == 0
	}
	return row
}

// E4Row is one data point of experiment E4 (peer-independent recovery under
// churn).
type E4Row struct {
	Fanout          int
	DisconnectProb  float64
	PeerIndependent bool
	Trials          int
	// FullyCompensated counts trials in which every surviving peer was
	// restored by the abort.
	FullyCompensated int
	// SurvivorRestoredFrac is the average fraction of surviving non-origin
	// peers whose documents were restored.
	SurvivorRestoredFrac float64
}

// RunE4 runs `trials` two-level transactions (origin → intermediates →
// leaves), disconnects each intermediate peer with probability p after
// execution, then aborts at the origin. With peer-dependent recovery the
// leaves under dead intermediates never hear the abort; with
// peer-independent recovery the origin drives their compensation directly
// via the shipped definitions.
func RunE4(fanout int, p float64, peerIndependent bool, trials int, seed int64) E4Row {
	rng := rand.New(rand.NewSource(seed))
	row := E4Row{Fanout: fanout, DisconnectProb: p, PeerIndependent: peerIndependent, Trials: trials}
	var fracSum float64
	for trial := 0; trial < trials; trial++ {
		tc := BuildTree(TreeSpec{Depth: 2, Fanout: fanout, Seed: rng.Int63(), PeerIndependent: peerIndependent})
		txc, err := tc.RunNoCommit()
		if err != nil {
			panic(fmt.Sprintf("sim: E4 run failed: %v", err))
		}
		// Disconnect intermediates (depth-1 peers) with probability p.
		var dead []p2p.PeerID
		for _, id := range tc.Order[1 : 1+fanout] {
			if rng.Float64() < p {
				tc.Net.Disconnect(id)
				dead = append(dead, id)
			}
		}
		_ = tc.Origin.Abort(context.Background(), txc)

		restored, total := 0, 0
		deadSet := make(map[p2p.PeerID]bool, len(dead))
		for _, d := range dead {
			deadSet[d] = true
		}
		for _, id := range tc.Order[1:] {
			if deadSet[id] {
				continue
			}
			total++
			if len(tc.RestoredViolations(id)) == 0 {
				restored++
			}
		}
		if total > 0 {
			frac := float64(restored) / float64(total)
			fracSum += frac
			if restored == total {
				row.FullyCompensated++
			}
		} else {
			fracSum++
			row.FullyCompensated++
		}
	}
	row.SurvivorRestoredFrac = fracSum / float64(trials)
	return row
}

// E5Row is one data point of experiment E5 (chaining vs traditional
// disconnection recovery).
type E5Row struct {
	Depth, Fanout int
	Chaining      bool
	Committed     bool
	// OrphanedEntries counts work entries left behind at descendants of
	// the dead peer that were never compensated (atomicity debt).
	OrphanedEntries int
	// NodesUndone is compensation work performed during recovery.
	NodesUndone       int64
	Messages          int64
	WorkReused        int64
	ForwardRecoveries int64
}

// RunE5 executes a tree transaction, then disconnects the first internal
// (depth-1) peer while the transaction is still open, lets its parent (the
// origin) detect the death, and measures the recovery with chaining on or
// off. With handlers and replicas available, chaining recovers forward and
// cleans up the orphaned subtree; without chaining, the origin can only
// abort, and the dead peer's descendants never learn about it.
func RunE5(depth, fanout int, chaining bool, seed int64) E5Row {
	tc := BuildTree(TreeSpec{
		Depth: depth, Fanout: fanout, Seed: seed,
		WithHandlers:    true,
		DisableChaining: !chaining,
	})
	txc, err := tc.RunNoCommit()
	if err != nil {
		panic(fmt.Sprintf("sim: E5 run failed: %v", err))
	}
	dead := tc.Order[1] // first child of the origin
	tc.Net.Disconnect(dead)
	tc.Origin.OnPeerDown(dead)

	committed := false
	if chaining {
		// Chaining recovery redid the dead subtree on the replica; the
		// transaction can commit (recoverDeadChild already ran).
		if txc.Status() == core.StatusActive {
			committed = tc.Origin.Commit(context.Background(), txc) == nil
		}
	} else {
		// Traditional: the origin aborts the whole transaction.
		_ = tc.Origin.Abort(context.Background(), txc)
	}

	orphans := 0
	for _, id := range descendantsOf(tc, dead) {
		if !committed && len(tc.RestoredViolations(id)) > 0 {
			orphans += tc.CountEntries(id, workDoc(id))
		}
	}
	m := tc.TotalMetrics()
	return E5Row{
		Depth: depth, Fanout: fanout, Chaining: chaining,
		Committed:         committed,
		OrphanedEntries:   orphans,
		NodesUndone:       m.NodesUndone,
		Messages:          tc.Net.Stats().Total,
		WorkReused:        m.WorkReused,
		ForwardRecoveries: m.ForwardRecoveries,
	}
}

// E6Row is one data point of experiment E6 (forward vs backward cost by
// affected nodes).
type E6Row struct {
	PayloadNodes   int
	WorkEntries    int
	BackwardUndone int64 // nodes undone by full abort
	ForwardUndone  int64 // nodes undone by minimal (leaf-only) recovery
	ForwardRedone  int   // entries re-executed on the replica
}

// RunE6 compares the affected-node cost of backward recovery (undo the
// whole tree) against forward recovery (undo only the failing leaf, redo it
// on a replica), as the per-peer work size grows.
func RunE6(payloadNodes, workEntries int, seed int64) E6Row {
	row := E6Row{PayloadNodes: payloadNodes, WorkEntries: workEntries}

	back := BuildTree(TreeSpec{Depth: 2, Fanout: 2, PayloadNodes: payloadNodes, WorkEntries: workEntries, Seed: seed})
	back.Fail[back.Leaves[len(back.Leaves)-1]].Store(true)
	_ = back.Run()
	row.BackwardUndone = back.TotalMetrics().NodesUndone

	fwd := BuildTree(TreeSpec{Depth: 2, Fanout: 2, PayloadNodes: payloadNodes, WorkEntries: workEntries, Seed: seed, WithHandlers: true})
	fwd.Fail[fwd.Leaves[len(fwd.Leaves)-1]].Store(true)
	if err := fwd.Run(); err != nil {
		panic(fmt.Sprintf("sim: E6 forward run failed: %v", err))
	}
	row.ForwardUndone = fwd.TotalMetrics().NodesUndone
	row.ForwardRedone = workEntries // the replica redoes the leaf's work
	return row
}

// E7Row is one data point of experiment E7 (spheres of atomicity).
type E7Row struct {
	SuperRatio float64
	Trials     int
	// GuaranteedFrac is the fraction of transactions whose participant set
	// was all super peers (atomicity guaranteed a priori).
	GuaranteedFrac float64
	// AtomicFrac is the fraction that actually ended atomically when every
	// non-super participant disconnected before the abort.
	AtomicFrac float64
}

// RunE7 measures how the super-peer ratio governs guaranteed and observed
// atomicity: after executing, every non-super peer disconnects (adversarial
// churn), the origin aborts, and we check whether all surviving peers were
// restored.
func RunE7(superRatio float64, trials int, seed int64) E7Row {
	rng := rand.New(rand.NewSource(seed))
	row := E7Row{SuperRatio: superRatio, Trials: trials}
	guaranteed, atomic := 0, 0
	for trial := 0; trial < trials; trial++ {
		tc := BuildTree(TreeSpec{Depth: 2, Fanout: 2, SuperRatio: superRatio, Seed: rng.Int63()})
		txc, err := tc.RunNoCommit()
		if err != nil {
			panic(fmt.Sprintf("sim: E7 run failed: %v", err))
		}
		if tc.Origin.SpheresOfAtomicityHolds(txc) {
			guaranteed++
		}
		var dead []p2p.PeerID
		for _, id := range tc.Order[1:] {
			if !tc.Peers[id].Super() {
				tc.Net.Disconnect(id)
				dead = append(dead, id)
			}
		}
		_ = tc.Origin.Abort(context.Background(), txc)
		if len(dead) == 0 && len(tc.RestoredViolations()) == 0 {
			atomic++
		}
	}
	row.GuaranteedFrac = float64(guaranteed) / float64(trials)
	row.AtomicFrac = float64(atomic) / float64(trials)
	return row
}

// OverheadRow is one data point of ablation A1: what the recovery
// machinery costs on the failure-free fast path.
type OverheadRow struct {
	Depth, Fanout   int
	Chaining        bool
	PeerIndependent bool
	Committed       bool
	Messages        int64
	ChainMsgs       int64
	CompDefMsgs     int64
	InvokeMsgs      int64
}

// RunOverhead executes a failure-free tree transaction and decomposes the
// message bill: chain-update propagation (the price of the §3.3 list) and
// compensating-service-definition shipping (the price of §3.2 peer
// independence) against the baseline invocations.
func RunOverhead(depth, fanout int, chaining, peerIndependent bool, seed int64) OverheadRow {
	tc := BuildTree(TreeSpec{
		Depth: depth, Fanout: fanout, Seed: seed,
		DisableChaining: !chaining,
		PeerIndependent: peerIndependent,
	})
	err := tc.Run()
	stats := tc.Net.Stats()
	return OverheadRow{
		Depth: depth, Fanout: fanout,
		Chaining: chaining, PeerIndependent: peerIndependent,
		Committed:   err == nil,
		Messages:    stats.Total,
		ChainMsgs:   stats.ByKind[p2p.KindChainUpdate],
		CompDefMsgs: stats.ByKind[p2p.KindCompDef],
		InvokeMsgs:  stats.ByKind[p2p.KindInvoke],
	}
}

func descendantsOf(tc *TreeCluster, root p2p.PeerID) []p2p.PeerID {
	var out []p2p.PeerID
	for _, id := range tc.Order {
		for cur := tc.Parent[id]; cur != ""; cur = tc.Parent[cur] {
			if cur == root {
				out = append(out, id)
				break
			}
		}
	}
	return out
}
