package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// syncPatterns are the write patterns the crash matrices sweep over the one
// durable log. Each row keeps the subtest name of the deleted sync mode whose
// forcing it reproduces: SyncNone forces only where the protocol does (the
// decision records and the serve barrier), SyncEach adds a barrier after
// every record, and SyncGroup runs concurrent barriers beside every append,
// so followers join the appender's group commit. None adds a record, so
// frame layout, rotation points and recovered state are the same in every
// row.
var syncPatterns = []struct {
	name string
	wrap func(wal.Log) wal.Log
}{
	{"SyncNone", func(l wal.Log) wal.Log { return l }},
	{"SyncEach", func(l wal.Log) wal.Log { return syncEachLog{l} }},
	{"SyncGroup", func(l wal.Log) wal.Log { return syncGroupLog{l} }},
}

// syncEachLog runs the Sync barrier after every append.
type syncEachLog struct{ wal.Log }

func (l syncEachLog) Append(r *wal.Record) (uint64, error) {
	lsn, err := l.Log.Append(r)
	if err != nil {
		return lsn, err
	}
	return lsn, l.Log.Sync()
}

// syncGroupLog runs three Sync barriers concurrently with every append.
type syncGroupLog struct{ wal.Log }

func (l syncGroupLog) Append(r *wal.Record) (uint64, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Log.Sync(); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	lsn, err := l.Log.Append(r)
	wg.Wait()
	return lsn, errors.Join(append([]error{err}, errs...)...)
}

// TestCrashRestartMatrix kills a peer mid-commit under every write pattern
// and at both sides of the commit record, then replays: the recovered document bytes must equal
// the no-fault outcome — the pre-transaction document when the decision
// record was not yet durable (presumed abort), the fully updated document
// when it was. The reopened log also has to pass the replay-consistency
// and compensation invariants, torn tail included.
// One more row crashes after a serve barrier with buffered effect records
// behind it: the crash loses exactly those, and recovery still compensates
// back to the pre-transaction document. A last row commits T (forced), then
// a read-only R whose commit is not forced, and the kill loses R's record:
// recovery finds nothing to do and the document is T's committed one.
func TestCrashRestartMatrix(t *testing.T) {
	type crashCase struct {
		name      string
		wrap      func(wal.Log) wal.Log
		committed bool // the commit record was durable at the kill instant
		unsynced  int  // inserts appended after the barrier, lost in the crash
		readOnly  bool // a read-only R commits after the barrier, lost in the crash
	}
	var cases []crashCase
	for _, pat := range syncPatterns {
		cases = append(cases,
			crashCase{pat.name + "/beforeCommit", pat.wrap, false, 0, false},
			crashCase{pat.name + "/afterCommit", pat.wrap, true, 0, false})
	}
	// Only a log with no extra barriers leaves records buffered behind the
	// serve barrier, or a read-only commit unforced.
	cases = append(cases,
		crashCase{"afterServeBarrier", syncPatterns[0].wrap, false, 2, false},
		crashCase{"lostReadOnlyCommit", syncPatterns[0].wrap, true, 0, true})
	const inserts = 3

	// The no-fault outcomes, built once on an in-memory store.
	loc, err := axml.ParseQuery(`Select d/log from d in D`)
	if err != nil {
		t.Fatal(err)
	}
	baseline := func(commit bool) string {
		log := wal.NewMemory()
		store := axml.NewStore(log)
		if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
			t.Fatal(err)
		}
		if commit {
			for i := 0; i < inserts; i++ {
				if _, err := store.Apply("T", axml.NewInsert(loc, fmt.Sprintf(`<entry n="%d"/>`, i)), nil, axml.Lazy); err != nil {
					t.Fatal(err)
				}
			}
		}
		doc, _ := store.Get("D.xml")
		return xmldom.MarshalString(doc.Root())
	}
	wantAborted, wantCommitted := baseline(false), baseline(true)

	for _, kill := range cases {
		t.Run(kill.name, func(t *testing.T) {
			dir := t.TempDir()
			// One segment holds the whole run: the active one, which a
			// crash tears.
			path := filepath.Join(dir, "00000001.seg")
			seg, err := wal.OpenDir(dir, wal.SegmentOptions{})
			if err != nil {
				t.Fatal(err)
			}
			log := kill.wrap(seg)
			store := axml.NewStore(log)
			if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeBegin}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < inserts; i++ {
				if _, err := store.Apply("T", axml.NewInsert(loc, fmt.Sprintf(`<entry n="%d"/>`, i)), nil, axml.Lazy); err != nil {
					t.Fatal(err)
				}
			}
			if kill.committed {
				if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeCommit}); err != nil {
					t.Fatal(err)
				}
			}
			// The barrier: everything appended so far is durable (the
			// engine runs it before a served invocation's reply). Its frame
			// end and the document as it stands now are what a crash keeps.
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			dirty, _ := store.Snapshot("D.xml")
			for i := 0; i < kill.unsynced; i++ {
				if _, err := store.Apply("T", axml.NewInsert(loc, fmt.Sprintf(`<entry n="%d"/>`, inserts+i)), nil, axml.Lazy); err != nil {
					t.Fatal(err)
				}
			}
			if kill.readOnly {
				// R reads and commits. It logged nothing before its commit,
				// so the commit waits for no fsync.
				if _, err := store.Apply("R", axml.NewQuery(loc), nil, axml.Lazy); err != nil {
					t.Fatal(err)
				}
				fsyncs := seg.Fsyncs()
				if _, err := log.Append(&wal.Record{Txn: "R", Type: wal.TypeCommit}); err != nil {
					t.Fatal(err)
				}
				if n := seg.Fsyncs() - fsyncs; n != 0 {
					t.Fatalf("read-only commit issued %d fsyncs, want 0", n)
				}
			}
			// The kill instant: the process dies — the handle is abandoned,
			// never closed, records appended after the barrier were never
			// synced and are lost, and the dying write leaves a torn tail.
			t.Cleanup(func() { _ = log.Close() })
			if err := os.Truncate(path, st.Size()); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("\x07torn-record-fragment")); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()

			// Restart: the dirty document is the persistent state, the
			// reopened log drives recovery.
			relog, err := wal.OpenDir(dir, wal.SegmentOptions{})
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			defer relog.Close()
			if err := core.CheckReplayConsistency(relog.Records()); err != nil {
				t.Fatalf("reopened log: %v", err)
			}
			restore := axml.NewStore(relog)
			restore.Add(dirty)
			recovered, err := core.RecoverPending(restore)
			if err != nil {
				t.Fatal(err)
			}
			if kill.committed && len(recovered) != 0 {
				t.Fatalf("recovery rolled back a committed txn: %v", recovered)
			}
			if !kill.committed && len(recovered) != 1 {
				t.Fatalf("recovery missed the in-flight txn: %v", recovered)
			}

			live, _ := restore.Get("D.xml")
			got := xmldom.MarshalString(live.Root())
			want := wantAborted
			if kill.committed {
				want = wantCommitted
			}
			if got != want {
				t.Fatalf("replayed document diverged from no-fault run:\n got: %s\nwant: %s", got, want)
			}
			if v := TxnViolations("peer", relog, "T"); len(v) > 0 {
				t.Fatal(v)
			}
			if kill.readOnly {
				if recs := relog.TxnRecords("R"); len(recs) != 0 {
					t.Fatalf("the kill kept the unforced read-only commit: %v", recs)
				}
			}
		})
	}
}
