package wal

// TxnState is what one transaction's records at a peer say about it. It is
// the one reading of the log that restart recovery, checkpoints, the abort
// handlers, compensation and the invariant checks share.
type TxnState struct {
	// Effects are the insert and delete records of the current compensation
	// epoch, in log order: everything after the last completed compensation
	// bracket. Records inside a completed bracket (compensation's own
	// effects) and before it (already undone) are not in it; effects logged
	// after it belong to a participant re-invoked during forward recovery
	// and compensate normally. An unclosed bracket (a crash mid-compensation)
	// does not end the epoch: its records are undos applied before the crash,
	// so they join it, and a re-run first re-does the partially undone
	// suffix, then undoes everything, which is consistent at every
	// intermediate step.
	Effects []*Record
	// Committed reports a TypeCommit record: committed effects must never be
	// compensated by a stray abort.
	Committed bool
	// Compensated reports that a compensation bracket completed and no
	// effect was logged after it: a repeated abort has nothing left to do.
	Compensated bool
}

// Pending reports whether the transaction has effects that neither a commit
// nor a completed compensation settled: the transactions restart recovery
// compensates, and so the ones a checkpoint must keep.
func (s TxnState) Pending() bool { return !s.Committed && len(s.Effects) > 0 }

// Fold reads one transaction's records, in log order, into its state.
func Fold(recs []*Record) TxnState {
	var f txnFold
	for _, r := range recs {
		f.add(r)
	}
	return f.state()
}

// PendingTxns returns the transactions of recs, a log's records in LSN
// order, whose state is Pending, in the order of their first record.
func PendingTxns(recs []*Record) []string {
	folds := make(map[string]*txnFold)
	var order []string
	for _, r := range recs {
		f, ok := folds[r.Txn]
		if !ok {
			f = &txnFold{}
			folds[r.Txn] = f
			order = append(order, r.Txn)
		}
		f.add(r)
	}
	var pending []string
	for _, txn := range order {
		if folds[txn].state().Pending() {
			pending = append(pending, txn)
		}
	}
	return pending
}

// txnFold is a TxnState under construction.
type txnFold struct {
	epoch, bracket []*Record
	open           bool // a CompensateBegin without its CompensateEnd yet
	completed      bool // some bracket closed
	committed      bool
}

func (f *txnFold) add(r *Record) {
	switch r.Type {
	case TypeCommit:
		f.committed = true
	case TypeCompensateBegin:
		if f.open {
			// The previous bracket never closed (a crash mid-compensation,
			// then a re-run): its applied undos join the epoch.
			f.epoch = append(f.epoch, f.bracket...)
			f.bracket = nil
		}
		f.open = true
	case TypeCompensateEnd:
		if f.open {
			f.epoch, f.bracket, f.open = nil, nil, false
			f.completed = true
		}
	case TypeInsert, TypeDelete:
		if f.open {
			f.bracket = append(f.bracket, r)
		} else {
			f.epoch = append(f.epoch, r)
		}
	}
}

func (f *txnFold) state() TxnState {
	effects := f.epoch
	if f.open {
		effects = append(effects[:len(effects):len(effects)], f.bracket...)
	}
	return TxnState{
		Effects:     effects,
		Committed:   f.committed,
		Compensated: f.completed && len(effects) == 0,
	}
}
