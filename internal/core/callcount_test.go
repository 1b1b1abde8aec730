package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// TestInsertedCallMaterializedThenCompensated: a call inserted into a
// call-free document raises its count, so the next lazy query finds and
// materializes it; compensating the transaction brings the count back to 0.
func TestInsertedCallMaterializedThenCompensated(t *testing.T) {
	s := axml.NewStore(wal.NewMemory())
	doc, err := s.AddParsed("D.xml", `<D><p><name>N</name></p></D>`)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T1", `Select p from p in D//p`, func(a *axml.Action) {
		a.Type, a.Data = axml.ActionInsert, `<axml:sc methodName="getPoints" mode="replace"/>`
	})
	if n := doc.ServiceCallCount(); n != 1 {
		t.Fatalf("ServiceCallCount after the insert = %d, want 1", n)
	}
	q, err := axml.ParseQuery(`Select p/points from p in D//p`)
	if err != nil {
		t.Fatal(err)
	}
	mat := &tableMat{
		results: map[string][]string{"getPoints": {`<points>7</points>`}},
		names:   map[string]string{"getPoints": "points"},
	}
	res, err := s.Apply("T1", axml.NewQuery(q), mat, axml.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(res.Materialized) != 1 || len(got) != 1 || got[0] != "7" {
		t.Fatalf("lazy query materialized %v and returned %v, want [getPoints] and [7]", res.Materialized, got)
	}
	if _, err := Compensate(s, "T1"); err != nil {
		t.Fatal(err)
	}
	if n := doc.ServiceCallCount(); n != 0 {
		t.Fatalf("ServiceCallCount after compensation = %d, want 0", n)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if !doc.Equal(snapshot) {
		t.Fatalf("compensation left %s", xmldom.MarshalString(doc.Root()))
	}
}

// TestCommittedDeletesLeaveTheIndex: a deleted subtree stays indexed only
// while compensation may still re-attach it. After 1 000 committed
// replaces, at the origin and at a leaf participant, each document indexes
// exactly its attached nodes.
func TestCommittedDeletesLeaveTheIndex(t *testing.T) {
	net := p2p.NewNetwork(0)
	ap1 := NewPeer(net.Join("AP1"), wal.NewMemory(), Options{})
	ap2 := NewPeer(net.Join("AP2"), wal.NewMemory(), Options{})
	if err := ap1.HostDocument("D1.xml", `<D1><slot v="0"/></D1>`); err != nil {
		t.Fatal(err)
	}
	if err := ap2.HostDocument("D2.xml", `<D2><slot v="0"/></D2>`); err != nil {
		t.Fatal(err)
	}
	ap2.HostUpdateService(services.Descriptor{Name: "W", ResultName: "updateResult", TargetDocument: "D2.xml"},
		`<action type="replace"><data><slot v="1"/></data><location>Select s from s in D2/slot;</location></action>`)
	loc, err := axml.ParseQuery(`Select s from s in D1/slot`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		txc := ap1.Begin()
		if _, err := ap1.Exec(ctx, txc, axml.NewReplace(loc, fmt.Sprintf(`<slot v="%d"/>`, i))); err != nil {
			t.Fatal(err)
		}
		if _, err := ap1.Call(ctx, txc, "AP2", "W", nil); err != nil {
			t.Fatal(err)
		}
		if err := ap1.Commit(ctx, txc); err != nil {
			t.Fatal(err)
		}
	}
	// The commit reaches AP2 one-way; its handler un-indexes before it
	// drops the context.
	deadline := time.Now().Add(5 * time.Second)
	for len(ap2.Manager().Active()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("AP2 still holds %d contexts", len(ap2.Manager().Active()))
		}
		time.Sleep(time.Millisecond)
	}
	for _, c := range []struct {
		peer *Peer
		doc  string
	}{{ap1, "D1.xml"}, {ap2, "D2.xml"}} {
		doc, _ := c.peer.Store().Get(c.doc)
		if doc.IndexSize() != doc.NodeCount() {
			t.Errorf("%s indexes %d nodes for %d attached", c.doc, doc.IndexSize(), doc.NodeCount())
		}
	}
}

// TestEndedTransactionsDropTheirDeleteLists: the store tracks a
// transaction's deleted subtrees until it commits or is compensated, at
// the origin and at a participant alike.
func TestEndedTransactionsDropTheirDeleteLists(t *testing.T) {
	net := p2p.NewNetwork(0)
	ap1 := NewPeer(net.Join("AP1"), wal.NewMemory(), Options{})
	ap2 := NewPeer(net.Join("AP2"), wal.NewMemory(), Options{})
	if err := ap1.HostDocument("D1.xml", `<D1><slot v="0"/></D1>`); err != nil {
		t.Fatal(err)
	}
	if err := ap2.HostDocument("D2.xml", `<D2><slot v="0"/></D2>`); err != nil {
		t.Fatal(err)
	}
	ap2.HostUpdateService(services.Descriptor{Name: "W", ResultName: "updateResult", TargetDocument: "D2.xml"},
		`<action type="replace"><data><slot v="1"/></data><location>Select s from s in D2/slot;</location></action>`)
	loc, err := axml.ParseQuery(`Select s from s in D1/slot`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		txc := ap1.Begin()
		if _, err := ap1.Exec(ctx, txc, axml.NewReplace(loc, fmt.Sprintf(`<slot v="%d"/>`, i))); err != nil {
			t.Fatal(err)
		}
		if _, err := ap1.Call(ctx, txc, "AP2", "W", nil); err != nil {
			t.Fatal(err)
		}
		if n := ap1.Store().DeletedTxns(); n != 1 {
			t.Fatalf("AP1 tracks deletions of %d transactions mid-transaction, want 1", n)
		}
		end := ap1.Commit
		if i%2 == 1 {
			end = ap1.Abort
		}
		if err := end(ctx, txc); err != nil && !errors.Is(err, ErrAborted) {
			t.Fatal(err)
		}
	}
	// Commit and abort reach AP2 one-way.
	deadline := time.Now().Add(5 * time.Second)
	for ap1.Store().DeletedTxns()+ap2.Store().DeletedTxns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("deletions still tracked for %d transactions at AP1 and %d at AP2",
				ap1.Store().DeletedTxns(), ap2.Store().DeletedTxns())
		}
		time.Sleep(time.Millisecond)
	}
}

// txnReadLog counts TxnRecords calls.
type txnReadLog struct {
	*wal.MemoryLog
	reads atomic.Int64
}

func (l *txnReadLog) TxnRecords(txn string) []*wal.Record {
	l.reads.Add(1)
	return l.MemoryLog.TxnRecords(txn)
}

// TestCommitWithoutDeletesCostsNothingMore: a transaction that logged an
// insert but deleted nothing commits without reading the log, and
// releasing its deleted subtrees allocates nothing.
func TestCommitWithoutDeletesCostsNothingMore(t *testing.T) {
	log := &txnReadLog{MemoryLog: wal.NewMemory()}
	p := NewPeer(p2p.NewNetwork(0).Join("AP1"), log, Options{})
	if err := p.HostDocument("D.xml", `<D><slot/></D>`); err != nil {
		t.Fatal(err)
	}
	loc, err := axml.ParseQuery(`Select s from s in D/slot`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txc := p.Begin()
	if _, err := p.Exec(ctx, txc, axml.NewInsert(loc, `<v/>`)); err != nil {
		t.Fatal(err)
	}
	inserts := 0
	for _, r := range log.MemoryLog.TxnRecords(txc.ID) {
		switch r.Type {
		case wal.TypeInsert:
			inserts++
		case wal.TypeDelete:
			t.Fatalf("the transaction logged a delete: %v", r)
		}
	}
	if inserts != 1 {
		t.Fatalf("the transaction logged %d inserts, want 1", inserts)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Store().DropDeleted(txc.ID) }); allocs != 0 {
		t.Fatalf("DropDeleted of a transaction without deletes allocates %v times", allocs)
	}
	reads := log.reads.Load()
	if err := p.Commit(ctx, txc); err != nil {
		t.Fatal(err)
	}
	if n := log.reads.Load() - reads; n != 0 {
		t.Fatalf("committing a transaction without deletes read its records %d times", n)
	}
}

// TestLockWaitHistogram: axml_lock_wait_seconds counts contended
// acquisitions only.
func TestLockWaitHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPeer(p2p.NewNetwork(0).Join("AP1"), wal.NewMemory(),
		Options{MetricsRegistry: reg, LockTimeout: 30 * time.Millisecond})
	waits := reg.Histogram("axml_lock_wait_seconds", obs.Labels{"peer": "AP1"})
	lt := p.locks
	for _, doc := range []string{"D", "D", "E"} { // first, re-entrant, another document
		if err := lt.Acquire("t1", doc); err != nil {
			t.Fatal(err)
		}
	}
	if n := waits.Count(); n != 0 {
		t.Fatalf("uncontended acquisitions observed %d waits", n)
	}
	// t2 contends with t1 for D and waits out the lock timeout.
	if err := lt.Acquire("t2", "D"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("contended Acquire = %v, want ErrLockTimeout", err)
	}
	if n, sum := waits.Count(), waits.Sum(); n != 1 || sum < 30*time.Millisecond {
		t.Fatalf("one contended acquisition observed %d waits totalling %v", n, sum)
	}
	lt.ReleaseAll("t1")
	if err := lt.Acquire("t2", "D"); err != nil {
		t.Fatal(err)
	}
	if n := waits.Count(); n != 1 {
		t.Fatalf("an uncontended acquisition after the release observed a wait (%d)", n)
	}
}

// TestQueryElementsVisited: axml_query_elements_visited counts what finding
// a query's bindings cost. On local_rw's shape of document, the first read
// and the first replace by key each walk all of it to build their index;
// every later one visits no more than its rows.
func TestQueryElementsVisited(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPeer(p2p.NewNetwork(0).Join("AP1"), wal.NewMemory(), Options{MetricsRegistry: reg})
	const players = 5000
	var b strings.Builder
	b.WriteString(`<ATPList>`)
	for i := 0; i < players; i++ {
		fmt.Fprintf(&b, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name>`+
			`<citizenship>C%d</citizenship><points>%d</points></player>`, i+1, i, i, i%50, 100+i)
	}
	b.WriteString(`</ATPList>`)
	if err := p.HostDocument("ATP0.xml", b.String()); err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) int64 {
		for _, s := range reg.Export() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("no %s series", name)
		return 0
	}
	read, err := axml.ParseQuery(`Select p/name/lastname, p/points from p in ATP0//player where p/citizenship = C7`)
	if err != nil {
		t.Fatal(err)
	}
	// visits runs one local_rw transaction and returns the elements its
	// query evaluation visited.
	visits := func(action *axml.Action) int64 {
		evals, visited := gauge("axml_query_evals"), gauge("axml_query_elements_visited")
		txc := p.Begin()
		if _, err := p.Exec(bg, txc, action); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(bg, txc); err != nil {
			t.Fatal(err)
		}
		if n := gauge("axml_query_evals") - evals; n != 1 {
			t.Fatalf("%d query evaluations for one action, want 1", n)
		}
		return gauge("axml_query_elements_visited") - visited
	}
	replace := func(k int) *axml.Action {
		q, err := axml.ParseQuery(fmt.Sprintf(`Select p/points from p in ATP0//player where p/name/lastname = L%d`, k))
		if err != nil {
			t.Fatal(err)
		}
		return axml.NewReplace(q, `<points>1</points>`)
	}
	const elements = 6 * players // below the root
	for i, c := range []struct {
		action   *axml.Action
		min, max int64
		what     string
	}{
		{axml.NewQuery(read), elements, elements + 100, "first read builds its index"},
		{axml.NewQuery(read), 0, 100, "later read"},
		{replace(7), elements, elements + 1, "first replace builds its index"},
		{replace(8), 0, 1, "later replace"},
		{axml.NewQuery(read), 0, 100, "read after replaces"},
	} {
		if n := visits(c.action); n < c.min || n > c.max {
			t.Fatalf("step %d (%s): %d elements visited, want %d to %d", i, c.what, n, c.min, c.max)
		}
	}
}
