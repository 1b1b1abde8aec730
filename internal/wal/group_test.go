package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitDurable verifies that every decision Append that
// returned is on disk: concurrent writers append commit records, each
// after its writer's first waiting on the shared fsync, the log is closed,
// and a reopen must see every record with intact framing.
func TestGroupCommitDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := &Record{Txn: fmt.Sprintf("T%d", w), Type: TypeCommit, Doc: "D", NodeID: uint64(i)}
				if _, err := l.Append(r); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Records()
	if len(got) != writers*each {
		t.Fatalf("reopen saw %d records, want %d", len(got), writers*each)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestSyncBarrier verifies the explicit Sync barrier: a no-op on an empty
// log, and after an append the record is durable when Sync returns;
// appending or syncing after Close fails cleanly. Each row keeps the
// subtest name, by number, of the deleted sync mode whose write pattern it
// reproduces: mode=0 syncs after a commit record, which Append forced only
// if an insert of the same transaction came before it (afterInsert) and
// not when it is the transaction's only record (lone); mode=1 after an
// effect record, which only the barrier forces; mode=2 from four
// concurrent callers, which share one flush.
func TestSyncBarrier(t *testing.T) {
	t.Run("mode=0", func(t *testing.T) {
		t.Run("lone", func(t *testing.T) { checkBarrier(t, 0, TypeCommit, 1) })
		t.Run("afterInsert", func(t *testing.T) { checkBarrier(t, TypeInsert, TypeCommit, 1) })
	})
	t.Run("mode=1", func(t *testing.T) { checkBarrier(t, 0, TypeInsert, 1) })
	t.Run("mode=2", func(t *testing.T) { checkBarrier(t, 0, TypeInsert, 4) })
}

// checkBarrier appends a prior record of transaction T (none when prior is
// 0), then a typ record of T, checks that Append forced it exactly when it
// is a decision after a prior record, then runs callers concurrent Sync
// barriers and checks the record is durable after them.
func checkBarrier(t *testing.T, prior, typ Type, callers int) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // empty log: no-op barrier
		t.Fatalf("empty sync: %v", err)
	}
	if prior != 0 {
		if _, err := l.Append(&Record{Txn: "T", Type: prior}); err != nil {
			t.Fatal(err)
		}
	}
	lsn, err := l.Append(&Record{Txn: "T", Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	want := typ.decision() && prior != 0
	if forced := syncedLSN(l) >= lsn; forced != want {
		t.Fatalf("%v record durable after Append: %v, want %v", typ, forced, want)
	}
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() { errs <- l.Sync() }()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	if got := syncedLSN(l); got < lsn {
		t.Fatalf("durable through LSN %d after the barrier, want %d", got, lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Txn: "T", Type: TypeInsert}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync after close: %v, want ErrClosed", err)
	}
}

// syncedLSN returns the highest LSN group commit knows durable.
func syncedLSN(l *SegmentedLog) uint64 {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	return l.synced
}

// TestDecisionForcesOnlyLoggedTxns pins when a decision Append waits for
// the disk: only when its transaction already has a record in the log. A
// transaction with no earlier record has nothing restart could compensate,
// so its decision is written, and read back after a clean reopen, but
// costs no fsync.
func TestDecisionForcesOnlyLoggedTxns(t *testing.T) {
	open := func(t *testing.T, dir string, opts SegmentOptions) *SegmentedLog {
		t.Helper()
		l, err := OpenDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	appendRec := func(t *testing.T, l *SegmentedLog, txn string, typ Type) uint64 {
		t.Helper()
		lsn, err := l.Append(&Record{Txn: txn, Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	// decide appends a typ decision of txn and reports whether that Append
	// forced the log: it issued an fsync and returned with the record durable.
	decide := func(t *testing.T, l *SegmentedLog, txn string, typ Type) bool {
		t.Helper()
		before := l.Fsyncs()
		lsn := appendRec(t, l, txn, typ)
		durable, synced := syncedLSN(l) >= lsn, l.Fsyncs() > before
		if durable != synced {
			t.Fatalf("%v of %s: durable %v but fsynced %v", typ, txn, durable, synced)
		}
		return durable
	}

	rows := []struct {
		prior, decision Type
	}{
		{TypeInsert, TypeCommit},
		{TypeDelete, TypeAbort},
		{TypeCompensateBegin, TypeCompensateEnd},
	}
	for _, row := range rows {
		t.Run(row.decision.String(), func(t *testing.T) {
			l := open(t, t.TempDir(), SegmentOptions{})
			defer l.Close()
			if decide(t, l, "R", row.decision) {
				t.Fatalf("a lone %v was forced", row.decision)
			}
			// Another transaction's record does not make the decision forced.
			appendRec(t, l, "T", row.prior)
			if decide(t, l, "S", row.decision) {
				t.Fatalf("a %v with no record of its own transaction was forced", row.decision)
			}
			if !decide(t, l, "T", row.decision) {
				t.Fatalf("a %v after a %v of its transaction was not forced", row.decision, row.prior)
			}
		})
	}

	t.Run("acrossCheckpoint", func(t *testing.T) {
		// T is Pending at the checkpoint, so the trimmed index keeps its
		// insert and its commit after the checkpoint is still forced.
		l := open(t, t.TempDir(), SegmentOptions{})
		defer l.Close()
		appendRec(t, l, "T", TypeInsert)
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !decide(t, l, "T", TypeCommit) {
			t.Fatal("a commit after a checkpoint that kept its transaction's insert was not forced")
		}
	})

	t.Run("loneReadBack", func(t *testing.T) {
		dir := t.TempDir()
		l := open(t, dir, SegmentOptions{})
		lsn := appendRec(t, l, "R", TypeCommit)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re := open(t, dir, SegmentOptions{})
		defer re.Close()
		recs := re.TxnRecords("R")
		if len(recs) != 1 || recs[0].LSN != lsn || recs[0].Type != TypeCommit {
			t.Fatalf("after a clean reopen R has %v, want its commit at LSN %d", recs, lsn)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// Writers mix lone decisions with effectful transactions over small
		// segments, so rotation races the group commit. A forced decision
		// acknowledges its LSN only once the synced watermark covers it;
		// every acknowledged LSN is read back after a reopen.
		dir := t.TempDir()
		opts := SegmentOptions{MaxSegmentBytes: 400}
		l := open(t, dir, opts)
		const writers, each = 8, 40
		var mu sync.Mutex
		var acked []uint64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					decision := []Type{TypeCommit, TypeAbort, TypeCompensateEnd}[i%3]
					txn := fmt.Sprintf("T%d-%d", w, i)
					if i%2 == 0 {
						if _, err := l.Append(&Record{Txn: txn, Type: decision}); err != nil {
							t.Errorf("lone append: %v", err)
							return
						}
						continue
					}
					if _, err := l.Append(&Record{Txn: txn, Type: TypeInsert}); err != nil {
						t.Errorf("effect append: %v", err)
						return
					}
					lsn, err := l.Append(&Record{Txn: txn, Type: decision})
					if err != nil {
						t.Errorf("decision append: %v", err)
						return
					}
					if got := syncedLSN(l); got < lsn {
						t.Errorf("forced LSN %d returned with the log durable through %d", lsn, got)
					}
					mu.Lock()
					acked = append(acked, lsn)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re := open(t, dir, opts)
		defer re.Close()
		seen := make(map[uint64]bool)
		for _, r := range re.Records() {
			seen[r.LSN] = true
		}
		if len(acked) != writers*each/2 {
			t.Fatalf("%d forced decisions acknowledged, want %d", len(acked), writers*each/2)
		}
		for _, lsn := range acked {
			if !seen[lsn] {
				t.Errorf("acknowledged forced LSN %d missing after reopen", lsn)
			}
		}
	})
}

// TestGroupCommitCloseUnderLoad closes the log while decision appenders
// wait on group commit; nothing may hang, and records that reported
// success must survive.
func TestGroupCommitCloseUnderLoad(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ok sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				lsn, err := l.Append(&Record{Txn: fmt.Sprintf("T%d", w), Type: TypeCommit})
				if err != nil {
					return
				}
				ok.Store(lsn, true)
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := make(map[uint64]bool)
	for _, r := range re.Records() {
		seen[r.LSN] = true
	}
	ok.Range(func(k, _ any) bool {
		if !seen[k.(uint64)] {
			t.Errorf("acknowledged LSN %d missing after reopen", k.(uint64))
		}
		return true
	})
}

// TestGroupCommitBarrierCoversBufferedAppends hammers the buffered-append
// contract: 8 writers append effect records, which do not wait, and
// decision records, which do, while Sync callers run beside them, with
// 400-byte segments (about 16 records) so rotation races every barrier. Each
// returned decision acknowledges its own LSN; each returned Sync
// acknowledges every LSN returned before it was called. After Close and
// reopen, every LSN at or below the highest acknowledged one is present.
func TestGroupCommitBarrierCoversBufferedAppends(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{MaxSegmentBytes: 400}
	l, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var appended, acked atomic.Uint64
	raise := func(v *atomic.Uint64, lsn uint64) {
		for {
			cur := v.Load()
			if lsn <= cur || v.CompareAndSwap(cur, lsn) {
				return
			}
		}
	}
	const writers, each, syncers = 8, 60, 2
	stop := make(chan struct{})
	var sw sync.WaitGroup
	for s := 0; s < syncers; s++ {
		sw.Add(1)
		go func() {
			defer sw.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				covered := appended.Load()
				if err := l.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
				raise(&acked, covered)
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < each; i++ {
				typ := TypeInsert
				if i%5 == 4 {
					typ = []Type{TypeCommit, TypeAbort, TypeCompensateEnd}[i%3]
				}
				lsn, err := l.Append(&Record{Txn: fmt.Sprintf("T%d-%d", w, i/5), Type: typ})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				raise(&appended, lsn)
				if typ.decision() {
					raise(&acked, lsn)
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	sw.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if acked.Load() == 0 {
		t.Fatal("no barrier or decision was acknowledged")
	}
	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := make(map[uint64]bool)
	for _, r := range re.Records() {
		seen[r.LSN] = true
	}
	for lsn := uint64(1); lsn <= acked.Load(); lsn++ {
		if !seen[lsn] {
			t.Fatalf("LSN %d at or below acknowledged LSN %d missing after reopen", lsn, acked.Load())
		}
	}
}
