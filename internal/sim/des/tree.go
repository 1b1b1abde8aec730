package des

import (
	"fmt"

	"axmltx/internal/chaos"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// TreeConfig configures one equivalence-mode run: the same (depth, fanout,
// seed, faults) quadruple sim.RunChaosTree takes, executed against the
// model instead of the real engine.
type TreeConfig struct {
	Depth, Fanout int
	Seed          int64
	Faults        string
}

// TreeResult mirrors sim.ChaosTreeResult field-for-field so equivalence
// tests can compare the two runners directly.
type TreeResult struct {
	Depth, Fanout int
	Seed          int64
	Faults        string
	Txn           string
	Committed     bool
	Injections    int
	Restarts      int
	Violations    []string
	States        map[p2p.PeerID]wal.TxnState
}

// BuildTreePlan enumerates the invocation tree breadth-first with the same
// P0..Pn naming sim.BuildTree uses, so fault schedules address identical
// peers in both runners.
func BuildTreePlan(txn string, depth, fanout int) *Plan {
	pl := &Plan{
		Txn:         txn,
		Origin:      "P0",
		Children:    make(map[p2p.PeerID][]p2p.PeerID),
		Parent:      make(map[p2p.PeerID]p2p.PeerID),
		WorkEntries: 1,
	}
	next := 1
	frontier := []p2p.PeerID{"P0"}
	for d := 1; d <= depth; d++ {
		var nextFrontier []p2p.PeerID
		for _, parent := range frontier {
			for f := 0; f < fanout; f++ {
				id := p2p.PeerID(fmt.Sprintf("P%d", next))
				next++
				pl.Children[parent] = append(pl.Children[parent], id)
				pl.Parent[id] = parent
				nextFrontier = append(nextFrontier, id)
			}
		}
		frontier = nextFrontier
	}
	return pl
}

// RunTree executes one transaction over a model tree under the chaos
// schedule, heals, reconciles, and reports the exact outcome fields
// sim.RunChaosTree reports — the equivalence contract between the
// discrete-event harness and the real engine.
func RunTree(cfg TreeConfig) (*TreeResult, error) {
	rules, err := chaos.ParseRules(cfg.Faults)
	if err != nil {
		return nil, err
	}
	inj := chaos.NewInjector(cfg.Seed, rules, nil)
	s := NewSched()
	d := NewDeployment(s, inj, Config{})

	const txn = "T1"
	pl := BuildTreePlan(txn, cfg.Depth, cfg.Fanout)
	peers := pl.Participants()
	for _, id := range peers {
		d.AddPeer(id)
	}
	d.AddPlan(pl)
	// The origin is the super peer of every chain here: protected, like
	// sim.RunChaosTree protects tc.Order[0].
	inj.Protect(pl.Origin)

	res := &TreeResult{Depth: cfg.Depth, Fanout: cfg.Fanout, Seed: cfg.Seed, Faults: cfg.Faults, Txn: txn}
	res.Committed, _ = d.RunTxn(txn)

	inj.Heal()

	// Reconcile over lexicographically sorted IDs, like the real runner.
	ids := make([]string, len(peers))
	for i, id := range peers {
		ids[i] = string(id)
	}
	sortStrings(ids)
	sorted := make([]p2p.PeerID, len(ids))
	for i, id := range ids {
		sorted[i] = p2p.PeerID(id)
	}
	res.Violations = d.Reconcile(txn, res.Committed, sorted)
	res.States = make(map[p2p.PeerID]wal.TxnState, len(peers))
	for _, id := range peers {
		res.States[id] = wal.Fold(d.Peer(id).Log().TxnRecords(txn))
	}

	res.Injections = len(inj.Injections())
	res.Restarts = inj.Restarts()
	return res, nil
}
