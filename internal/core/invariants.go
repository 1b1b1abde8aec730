package core

import (
	"fmt"

	"axmltx/internal/wal"
)

// Invariant checkers over a peer's WAL, exported for the conformance suite
// (internal/chaos) and property tests. They formalize the relaxed-atomicity
// guarantees of §3.1–§3.3 as machine-checkable predicates:
//
//   - CheckReplayConsistency: the log itself is replayable — LSNs are
//     strictly increasing and contiguous, so a reopened log (SegmentedLog with
//     torn-tail truncation) yields exactly the prefix that was durable.
//   - CheckCompensationComplete: a transaction that did not commit locally
//     has no surviving effects; one that committed was never compensated.
//   - CheckReverseCompensationOrder: every completed compensation bracket
//     undoes its epoch's effects in exact reverse order (the Sagas rule
//     §3.1 builds on).

// CheckReplayConsistency verifies that the record sequence has strictly
// increasing, contiguous LSNs — the property WAL replay after crash-restart
// depends on. An empty log is trivially consistent.
func CheckReplayConsistency(recs []*wal.Record) error {
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN != recs[i-1].LSN+1 {
			return fmt.Errorf("core: LSN gap: record %d has LSN %d after LSN %d",
				i, recs[i].LSN, recs[i-1].LSN)
		}
	}
	return nil
}

// CheckLSNMonotonic verifies strictly increasing LSNs without requiring
// contiguity — the replay invariant for checkpointed segmented logs, where
// a checkpoint snapshot legitimately drops the records of resolved
// transactions and leaves gaps in the surviving sequence.
func CheckLSNMonotonic(recs []*wal.Record) error {
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			return fmt.Errorf("core: LSN regression: record %d has LSN %d after LSN %d",
				i, recs[i].LSN, recs[i-1].LSN)
		}
	}
	return nil
}

// CheckCompensationComplete verifies txn's terminal state at one peer:
// if it committed locally, it must not (also) be fully compensated; if it
// did not commit, no structural effects may survive in the current epoch —
// every insert/delete was rolled back by a completed compensation bracket.
// Callers invoke it after the global outcome is known (for the commit case,
// only the peers that were told to commit carry a commit record; stragglers
// look like the abort case and must be reconciled first).
func CheckCompensationComplete(log wal.Log, txn string) error {
	st := wal.Fold(log.TxnRecords(txn))
	if st.Committed {
		if st.Compensated {
			return fmt.Errorf("core: txn %s both committed and fully compensated", txn)
		}
		return nil
	}
	if n := len(st.Effects); n > 0 {
		return fmt.Errorf("core: txn %s did not commit but %d effect record(s) remain uncompensated", txn, n)
	}
	return nil
}

// CheckNoCompensationAfterCommit verifies that no compensation bracket of
// txn opens after txn's commit record in the log: once a peer logged the
// commit, nothing may undo that work.
func CheckNoCompensationAfterCommit(log wal.Log, txn string) error {
	committed := false
	for _, r := range log.TxnRecords(txn) {
		switch r.Type {
		case wal.TypeCommit:
			committed = true
		case wal.TypeCompensateBegin:
			if committed {
				return fmt.Errorf("core: txn %s compensated after its commit (LSN %d)", txn, r.LSN)
			}
		}
	}
	return nil
}

// CheckReverseCompensationOrder verifies that every completed compensation
// bracket in txn's log undoes the effects of its epoch in exact reverse
// order: the i-th compensating record must undo the (n-i)-th forward record
// — a delete of the node an insert created, or an insert restoring the node
// a delete removed (matched by node ID, falling back to the logged
// before-image for restores that had to re-parse). Records of an unclosed
// bracket (crash mid-compensation) fold into the epoch, mirroring how
// recovery re-runs them.
func CheckReverseCompensationOrder(log wal.Log, txn string) error {
	recs := log.TxnRecords(txn)
	var epoch, bracket []*wal.Record
	open := false
	brackets := 0
	for _, r := range recs {
		switch r.Type {
		case wal.TypeCompensateBegin:
			if open {
				epoch = append(epoch, bracket...)
				bracket = nil
			}
			open = true
		case wal.TypeCompensateEnd:
			if !open {
				continue
			}
			brackets++
			if err := checkUndoesReverse(epoch, bracket); err != nil {
				return fmt.Errorf("core: txn %s compensation bracket %d: %w", txn, brackets, err)
			}
			epoch, bracket, open = epoch[:0], nil, false
		case wal.TypeInsert, wal.TypeDelete:
			if open {
				bracket = append(bracket, r)
			} else {
				epoch = append(epoch, r)
			}
		}
	}
	return nil
}

// checkUndoesReverse verifies comp[i] undoes eff[len(eff)-1-i] for every i.
func checkUndoesReverse(eff, comp []*wal.Record) error {
	if len(comp) != len(eff) {
		return fmt.Errorf("%d compensating record(s) for %d effect(s)", len(comp), len(eff))
	}
	for i, c := range comp {
		e := eff[len(eff)-1-i]
		if undoes(e, c) {
			continue
		}
		return fmt.Errorf("record %d (%s node %d) does not undo effect (%s node %d) in reverse order",
			i, typeName(c.Type), c.NodeID, typeName(e.Type), e.NodeID)
	}
	return nil
}

// undoes reports whether compensating record c undoes forward record e.
func undoes(e, c *wal.Record) bool {
	if e.Doc != c.Doc {
		return false
	}
	switch {
	case e.Type == wal.TypeInsert && c.Type == wal.TypeDelete:
		return c.NodeID == e.NodeID
	case e.Type == wal.TypeDelete && c.Type == wal.TypeInsert:
		// The restore normally re-attaches the very node (same ID); when the
		// node had to be re-parsed (fresh store after restart) the IDs
		// differ but the before-image matches.
		return c.NodeID == e.NodeID || c.XML == e.XML
	}
	return false
}

func typeName(t wal.Type) string {
	switch t {
	case wal.TypeInsert:
		return "insert"
	case wal.TypeDelete:
		return "delete"
	default:
		return fmt.Sprintf("type(%d)", t)
	}
}
