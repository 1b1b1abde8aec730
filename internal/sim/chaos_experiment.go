package sim

import (
	"context"

	"axmltx/internal/chaos"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// ChaosTreeResult is the outcome of one fault-injected tree transaction.
type ChaosTreeResult struct {
	Depth, Fanout int
	Seed          int64
	Faults        string
	// Txn is the transaction ID the run minted, so callers can normalize
	// ID-bearing violation messages when comparing runs.
	Txn        string
	Committed  bool
	Injections int
	Restarts   int
	// Violations lists every invariant the run broke after healing; empty
	// means the run conforms.
	Violations []string
	// States is each peer's log folded for Txn after healing.
	States map[p2p.PeerID]wal.TxnState
}

// ChaosTreeConfig parameterizes RunChaosTreeCfg beyond the positional
// arguments of RunChaosTree.
type ChaosTreeConfig struct {
	Depth, Fanout int
	Seed          int64
	Faults        string
	// SuperRatio is the fraction of non-origin peers marked super
	// (TreeSpec.SuperRatio); 0 reproduces RunChaosTree exactly.
	SuperRatio float64
}

// RunChaosTree builds a Depth×Fanout invocation tree behind a chaos
// injector and runs one transaction under the given noise schedule (rule
// DSL, see chaos.ParseRules). After the run the faults heal — crashed peers
// restart through WAL replay, partitions lift — stragglers are reconciled
// with the final decision, and the relaxed-atomicity invariants are checked
// on every peer's log. It is the generalization of the chaos package's
// fixed Figure 1 conformance runs to arbitrary synthetic trees.
func RunChaosTree(depth, fanout int, seed int64, faults string) (*ChaosTreeResult, error) {
	return RunChaosTreeCfg(ChaosTreeConfig{Depth: depth, Fanout: fanout, Seed: seed, Faults: faults})
}

// RunChaosTreeCfg is RunChaosTree with the full configuration surface.
func RunChaosTreeCfg(cfg ChaosTreeConfig) (*ChaosTreeResult, error) {
	rules, err := chaos.ParseRules(cfg.Faults)
	if err != nil {
		return nil, err
	}
	inj := chaos.NewInjector(cfg.Seed, rules, nil)
	tc := buildTree(TreeSpec{Depth: cfg.Depth, Fanout: cfg.Fanout, Seed: cfg.Seed, SuperRatio: cfg.SuperRatio}, inj)
	// The origin drives the workload and holds the decision; crashing it
	// models nothing from §3.3 (it is the super peer of every chain here).
	inj.Protect(tc.Order[0])

	res := &ChaosTreeResult{Depth: cfg.Depth, Fanout: cfg.Fanout, Seed: cfg.Seed, Faults: cfg.Faults}
	txc, runErr := tc.RunNoCommit()
	res.Txn = txc.ID
	if runErr == nil {
		res.Committed = tc.Origin.Commit(context.Background(), txc) == nil
	} else {
		_ = tc.Origin.Abort(context.Background(), txc)
	}
	res.Violations = tc.Settle(txc.ID, res.Committed)
	res.States = make(map[p2p.PeerID]wal.TxnState, len(tc.Logs))
	for id, log := range tc.Logs {
		res.States[id] = wal.Fold(log.TxnRecords(txc.ID))
	}
	res.Injections = len(inj.Injections())
	res.Restarts = inj.Restarts()
	return res, nil
}
