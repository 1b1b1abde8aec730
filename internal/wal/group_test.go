package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitDurable verifies that every decision Append that
// returned is on disk: concurrent writers append commit
// records, each waiting on the shared fsync, the log is closed, and a
// reopen must see every record with intact framing.
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
// appending or syncing after Close fails cleanly. Each row
// keeps the subtest name, by number, of the deleted sync mode whose write
// pattern it reproduces: mode=0 syncs after a decision record, which Append
// already forced; mode=1 after an effect record, which only the barrier
// forces; mode=2 from four concurrent callers, which share one flush.
func TestSyncBarrier(t *testing.T) {
	rows := []struct {
		typ     Type
		callers int
	}{
		{TypeCommit, 1},
		{TypeInsert, 1},
		{TypeInsert, 4},
	}
	for i, row := range rows {
		t.Run(fmt.Sprintf("mode=%d", i), func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenDir(dir, SegmentOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil { // empty log: no-op barrier
				t.Fatalf("empty sync: %v", err)
			}
			lsn, err := l.Append(&Record{Txn: "T", Type: row.typ})
			if err != nil {
				t.Fatal(err)
			}
			synced := func() uint64 {
				l.gmu.Lock()
				defer l.gmu.Unlock()
				return l.synced
			}
			if forced := synced() >= lsn; forced != row.typ.decision() {
				t.Fatalf("%v record durable after Append: %v, want %v", row.typ, forced, row.typ.decision())
			}
			errs := make(chan error, row.callers)
			for c := 0; c < row.callers; c++ {
				go func() { errs <- l.Sync() }()
			}
			for c := 0; c < row.callers; c++ {
				if err := <-errs; err != nil {
					t.Fatalf("sync: %v", err)
				}
			}
			if got := synced(); got < lsn {
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
		})
	}
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
