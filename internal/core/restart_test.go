package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

func TestRecoverPendingCompensatesInFlightTxn(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenDir(dir, wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := axml.NewStore(log)
	if _, err := store.AddParsed("D.xml", `<D><a>orig</a></D>`); err != nil {
		t.Fatal(err)
	}
	snapshot, _ := store.Snapshot("D.xml")

	// T1 commits; T2 is in flight at "crash" time.
	loc, _ := axml.ParseQuery(`Select d from d in D`)
	if _, err := log.Append(&wal.Record{Txn: "T1", Type: wal.TypeBegin}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply("T1", axml.NewInsert(loc, `<committed/>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(&wal.Record{Txn: "T1", Type: wal.TypeCommit}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(&wal.Record{Txn: "T2", Type: wal.TypeBegin}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply("T2", axml.NewInsert(loc, `<uncommitted/>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	locA, _ := axml.ParseQuery(`Select d/a from d in D`)
	if _, err := store.Apply("T2", axml.NewReplace(locA, `<a>dirty</a>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": the documents are the persistent state (they carry T2's
	// uncommitted effects); the log is reopened and recovery runs.
	relog, err := wal.OpenDir(dir, wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	restore := axml.NewStore(relog)
	dirtyDoc, _ := store.Snapshot("D.xml")
	restore.Add(dirtyDoc)

	recovered, err := RecoverPending(restore)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "T2" {
		t.Fatalf("recovered = %v", recovered)
	}
	// T2's effects are gone; T1's survive.
	live, _ := restore.Get("D.xml")
	wantDoc := snapshot.Clone()
	frag, _ := xmldom.ParseFragment(wantDoc, `<committed/>`)
	if err := wantDoc.AppendChild(wantDoc.Root(), frag); err != nil {
		t.Fatal(err)
	}
	if !live.Equal(wantDoc) {
		t.Fatalf("after recovery:\n got: %s\nwant: %s",
			xmldom.MarshalString(live.Root()), xmldom.MarshalString(wantDoc.Root()))
	}
	// Idempotent.
	again, err := RecoverPending(restore)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second pass recovered %v", again)
	}
}

// TestRecoverPendingAfterCheckpointOfReinvokedTxn: a participant whose work
// was compensated and which was then re-invoked (forward recovery) has new,
// uncommitted effects after a completed compensation bracket. A checkpoint
// taken then must keep the transaction's records, so a restart from the
// checkpointed log still compensates the new work.
func TestRecoverPendingAfterCheckpointOfReinvokedTxn(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenDir(dir, wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := axml.NewStore(log)
	if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
		t.Fatal(err)
	}
	pristine, _ := store.Snapshot("D.xml")
	loc, _ := axml.ParseQuery(`Select d/log from d in D`)
	if _, err := store.Apply("T", axml.NewInsert(loc, `<first/>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	if _, err := Compensate(store, "T"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply("T", axml.NewInsert(loc, `<again/>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	if err := log.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dirty, _ := store.Snapshot("D.xml")
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	relog, err := wal.OpenDir(dir, wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	restore := axml.NewStore(relog)
	restore.Add(dirty)
	recovered, err := RecoverPending(restore)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "T" {
		t.Fatalf("recovered = %v, want [T]", recovered)
	}
	live, _ := restore.Get("D.xml")
	if !live.Equal(pristine) {
		t.Fatalf("after recovery:\n got: %s\nwant: %s",
			xmldom.MarshalString(live.Root()), xmldom.MarshalString(pristine.Root()))
	}
	if err := CheckCompensationComplete(relog, "T"); err != nil {
		t.Fatal(err)
	}
	if err := CheckReverseCompensationOrder(relog, "T"); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverPendingViaPeer(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	hostEntryService(t, ap1, "S1", "D1.xml")
	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP1", "S1", nil); err != nil {
		t.Fatal(err)
	}
	// The peer "restarts" without committing: the same store/log stand in
	// for the reloaded persistent state.
	recovered, err := ap1.RecoverPending()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered = %v", recovered)
	}
	if entryCount(t, ap1, "D1.xml") != 0 {
		t.Fatal("pending effects survived restart recovery")
	}
}

// TestBackgroundCheckpointFailureCounted: a file where the checkpoint's
// rotation would create the next segment makes the background checkpoint
// fail. The peer counts it in CheckpointErrors (axml_wal_checkpoint_errors)
// and ends a wal-compact span with the error.
func TestBackgroundCheckpointFailureCounted(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenDir(dir, wal.SegmentOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(0)
	reg := obs.NewRegistry()
	p := NewPeer(p2p.NewNetwork(0).Join("AP1"), log, Options{TraceSink: ring, MetricsRegistry: reg})
	for i := 0; i < 4; i++ {
		if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeInsert}); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for the background checkpoint the fourth append kicked.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().CheckpointErrors.Load(); got != 1 {
		t.Fatalf("CheckpointErrors = %d, want 1", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `axml_wal_checkpoint_errors{peer="AP1"} 1`) {
		t.Fatalf("/metrics misses the checkpoint error count:\n%s", sb.String())
	}
	var failed int
	for _, s := range ring.Spans() {
		if s.Kind == obs.KindCompact && s.Outcome == obs.OutcomeError && strings.Contains(s.Err, "create segment") {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("wal-compact spans ending in the create error = %d, want 1", failed)
	}
}
