package core

import (
	"strings"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

func TestCheckLSNMonotonic(t *testing.T) {
	log := wal.NewMemory()
	for i := 0; i < 5; i++ {
		if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeBegin}); err != nil {
			t.Fatal(err)
		}
	}
	recs := log.Records()
	// Gaps are fine (a checkpoint trimmed resolved transactions)…
	if err := CheckLSNMonotonic([]*wal.Record{recs[0], recs[3]}); err != nil {
		t.Fatalf("gapped but increasing sequence flagged: %v", err)
	}
	// …but regressions and duplicates are not.
	if err := CheckLSNMonotonic([]*wal.Record{recs[3], recs[1]}); err == nil {
		t.Fatal("LSN regression not flagged")
	}
	if err := CheckLSNMonotonic([]*wal.Record{recs[2], recs[2]}); err == nil {
		t.Fatal("duplicate LSN not flagged")
	}
}

func TestCheckReplayConsistency(t *testing.T) {
	log := wal.NewMemory()
	for i := 0; i < 5; i++ {
		if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeBegin}); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckReplayConsistency(log.Records()); err != nil {
		t.Fatalf("contiguous log flagged: %v", err)
	}
	recs := log.Records()
	gapped := []*wal.Record{recs[0], recs[2]}
	if err := CheckReplayConsistency(gapped); err == nil {
		t.Fatal("LSN gap not flagged")
	}
}

func TestCheckReverseCompensationOrder(t *testing.T) {
	log := wal.NewMemory()
	store := axml.NewStore(log)
	if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
		t.Fatal(err)
	}
	loc, _ := axml.ParseQuery(`Select d/log from d in D`)
	for i := 0; i < 3; i++ {
		if _, err := store.Apply("T", axml.NewInsert(loc, `<entry/>`), nil, axml.Lazy); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Compensate(store, "T"); err != nil {
		t.Fatal(err)
	}
	if err := CheckReverseCompensationOrder(log, "T"); err != nil {
		t.Fatalf("correct compensation flagged: %v", err)
	}
	if err := CheckCompensationComplete(log, "T"); err != nil {
		t.Fatalf("complete compensation flagged: %v", err)
	}

	// A forged bracket in forward (not reverse) order must be flagged.
	flog := wal.NewMemory()
	mk := func(typ wal.Type, node uint64) {
		if _, err := flog.Append(&wal.Record{Txn: "T", Type: typ, Doc: "D.xml", NodeID: node}); err != nil {
			t.Fatal(err)
		}
	}
	mk(wal.TypeInsert, 1)
	mk(wal.TypeInsert, 2)
	if _, err := flog.Append(&wal.Record{Txn: "T", Type: wal.TypeCompensateBegin}); err != nil {
		t.Fatal(err)
	}
	mk(wal.TypeDelete, 1) // wrong: node 2 must be undone first
	mk(wal.TypeDelete, 2)
	if _, err := flog.Append(&wal.Record{Txn: "T", Type: wal.TypeCompensateEnd}); err != nil {
		t.Fatal(err)
	}
	err := CheckReverseCompensationOrder(flog, "T")
	if err == nil || !strings.Contains(err.Error(), "reverse order") {
		t.Fatalf("forward-order bracket not flagged: %v", err)
	}
}

func TestCheckCompensationCompleteUncompensated(t *testing.T) {
	log := wal.NewMemory()
	store := axml.NewStore(log)
	if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
		t.Fatal(err)
	}
	loc, _ := axml.ParseQuery(`Select d/log from d in D`)
	if _, err := store.Apply("T", axml.NewInsert(loc, `<entry/>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	if err := CheckCompensationComplete(log, "T"); err == nil {
		t.Fatal("uncompensated uncommitted effects not flagged")
	}
	if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeCommit}); err != nil {
		t.Fatal(err)
	}
	if err := CheckCompensationComplete(log, "T"); err != nil {
		t.Fatalf("committed txn flagged: %v", err)
	}
}

// TestCrashMidCompensationRecovers exercises the unclosed-bracket epoch
// fold: a compensation run crashes halfway (one of two undos applied, no
// CompensateEnd); the recovery re-run must restore the document exactly and
// leave a log the invariant checkers accept.
func TestCrashMidCompensationRecovers(t *testing.T) {
	log := wal.NewMemory()
	store := axml.NewStore(log)
	if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
		t.Fatal(err)
	}
	snap, _ := store.Snapshot("D.xml")
	loc, _ := axml.ParseQuery(`Select d/log from d in D`)
	if _, err := store.Apply("T", axml.NewInsert(loc, `<a/>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply("T", axml.NewInsert(loc, `<b/>`), nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}

	// Partial compensation: bracket opened, only the first undo (of <b/>)
	// applied, then "crash" — no CompensateEnd.
	actions := BuildCompensation(log, "T")
	if len(actions) != 2 {
		t.Fatalf("expected 2 undo actions, got %d", len(actions))
	}
	if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeCompensateBegin}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply("T", actions[0], nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}

	if wal.Fold(log.TxnRecords("T")).Compensated {
		t.Fatal("partial compensation reported as complete")
	}
	// Recovery re-runs compensation over the folded epoch.
	if _, err := Compensate(store, "T"); err != nil {
		t.Fatal(err)
	}
	live, _ := store.Get("D.xml")
	if !live.Equal(snap) {
		t.Fatalf("document not restored:\n got: %s\nwant: %s",
			xmldom.MarshalString(live.Root()), xmldom.MarshalString(snap.Root()))
	}
	if !wal.Fold(log.TxnRecords("T")).Compensated {
		t.Fatal("recovery did not complete compensation")
	}
	if err := CheckCompensationComplete(log, "T"); err != nil {
		t.Fatal(err)
	}
	if err := CheckReverseCompensationOrder(log, "T"); err != nil {
		t.Fatal(err)
	}
}
