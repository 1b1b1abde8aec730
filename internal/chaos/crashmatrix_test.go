package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// TestCrashRestartMatrix kills a peer mid-commit under every WAL sync mode
// and at both sides of the commit record, then replays: the recovered
// document bytes must equal the no-fault outcome — the pre-transaction
// document when the decision record was not yet durable (presumed abort),
// the fully updated document when it was. The reopened log also has to pass
// the replay-consistency and compensation invariants, torn tail included.
// One more row crashes after a serve barrier with buffered effect records
// behind it: the crash loses exactly those, and recovery still compensates
// back to the pre-transaction document.
func TestCrashRestartMatrix(t *testing.T) {
	modes := []struct {
		name string
		opts wal.FileOptions
	}{
		{"SyncNone", wal.FileOptions{Sync: wal.SyncNone}},
		{"SyncEach", wal.FileOptions{Sync: wal.SyncEach}},
		{"SyncGroup", wal.FileOptions{Sync: wal.SyncGroup}},
	}
	kills := []struct {
		name      string
		committed bool // the commit record was durable at the kill instant
	}{
		{"beforeCommit", false},
		{"afterCommit", true},
	}
	type crashCase struct {
		name      string
		opts      wal.FileOptions
		committed bool
		unsynced  int // inserts appended after the barrier, lost in the crash
	}
	var cases []crashCase
	for _, mode := range modes {
		for _, kill := range kills {
			cases = append(cases, crashCase{mode.name + "/" + kill.name, mode.opts, kill.committed, 0})
		}
	}
	cases = append(cases, crashCase{"SyncGroup/afterServeBarrier", wal.FileOptions{Sync: wal.SyncGroup}, false, 2})
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
			path := filepath.Join(t.TempDir(), "peer.wal")
			log, err := wal.OpenFileWith(path, kill.opts)
			if err != nil {
				t.Fatal(err)
			}
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
			relog, err := wal.OpenFileWith(path, kill.opts)
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
			if err := core.CheckReverseCompensationOrder(relog, "T"); err != nil {
				t.Fatal(err)
			}
			if err := core.CheckCompensationComplete(relog, "T"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
