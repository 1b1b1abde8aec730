package core

import (
	"fmt"

	"axmltx/internal/axml"
	"axmltx/internal/wal"
)

// RecoverPending rolls back every transaction in the store's log that has
// structural effects but neither committed nor was fully compensated — the
// restart-time recovery pass of a peer. AXML documents are the peer's
// persistent state; after a crash they may contain effects of in-flight
// transactions, and the log's before-images are exactly what is needed to
// compensate them (§3.1's rationale for logging).
//
// It returns the IDs of the transactions it compensated. The pass is
// idempotent: compensation markers make re-runs no-ops.
func RecoverPending(store *axml.Store) ([]string, error) {
	var recovered []string
	for _, txn := range wal.PendingTxns(store.Log().Records()) {
		if _, err := Compensate(store, txn); err != nil {
			return recovered, fmt.Errorf("core: restart recovery of %s: %w", txn, err)
		}
		recovered = append(recovered, txn)
	}
	return recovered, nil
}

// RecoverPending runs restart-time recovery over this peer's store,
// updating the compensation metrics.
func (p *Peer) RecoverPending() ([]string, error) {
	recovered, err := RecoverPending(p.store)
	if len(recovered) > 0 {
		p.metrics.Compensations.Add(int64(len(recovered)))
	}
	return recovered, err
}

// Restart simulates a crash-restart of the peer: every live transaction
// context is discarded (a crashed process loses its volatile state — no
// abort messages are sent), document locks are released, and restart-time
// recovery compensates whatever the log shows as uncommitted. The store and
// log stand in for the reloaded persistent state, exactly as in
// RecoverPending's model where AXML documents plus the undo log survive the
// crash. The chaos injector uses this as the restart hook after an injected
// crash.
func (p *Peer) Restart() ([]string, error) {
	p.mgr.mu.Lock()
	ids := make([]string, 0, len(p.mgr.ctxs))
	for id := range p.mgr.ctxs {
		ids = append(ids, id)
	}
	p.mgr.ctxs = make(map[string]*Context)
	p.mgr.mu.Unlock()
	for _, id := range ids {
		p.locks.ReleaseAll(id)
	}
	return p.RecoverPending()
}
