package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// openPeer opens AP1 on dir over a fresh network, hosting D.xml with the
// given configured content in setup.
func openPeer(t *testing.T, dir, config string) *Peer {
	t.Helper()
	p, err := Open(dir, p2p.NewNetwork(0).Join("AP1"), Options{}, wal.SegmentOptions{}, func(p *Peer) error {
		return p.HostDocument("D.xml", config)
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// withIDs renders a document's elements with their node IDs, so two
// renderings match only if the bytes and the IDs both survived.
func withIDs(t *testing.T, p *Peer) string {
	t.Helper()
	doc, ok := p.Store().Snapshot("D.xml")
	if !ok {
		t.Fatal("D.xml is not hosted")
	}
	var b strings.Builder
	doc.Root().Walk(func(n *xmldom.Node) bool {
		if n.Kind() == xmldom.ElementNode {
			fmt.Fprintf(&b, "<%s#%d>", n.Name(), n.ID())
		}
		return true
	})
	return b.String() + " " + xmldom.MarshalString(doc.Root())
}

func execInsert(t *testing.T, p *Peer, txc *Context, data string) {
	t.Helper()
	loc, _ := axml.ParseQuery(`Select d from d in D`)
	if _, err := p.Exec(bg, txc, axml.NewInsert(loc, data)); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCloseRoundTrip: what a transaction committed before Close is what
// the next Open serves, node IDs included, although setup hosts the
// configured content under the same name again.
func TestOpenCloseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := openPeer(t, dir, `<D/>`)
	txc := p.Begin()
	execInsert(t, p, txc, `<x><y/></x>`)
	if err := p.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	want := withIDs(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re := openPeer(t, dir, `<D/>`)
	defer re.Close()
	if got := withIDs(t, re); got != want {
		t.Fatalf("after reopen:\n got %s\nwant %s", got, want)
	}
}

// TestOpenCompensatesInFlightAtClose: a transaction neither committed nor
// aborted at Close reaches the checkpoint with its effects, and the next
// Open compensates them from the log before it serves.
func TestOpenCompensatesInFlightAtClose(t *testing.T) {
	dir := t.TempDir()
	p := openPeer(t, dir, `<D/>`)
	before := withIDs(t, p)
	txc := p.Begin()
	execInsert(t, p, txc, `<inflight/>`)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re := openPeer(t, dir, `<D/>`)
	defer re.Close()
	if got := withIDs(t, re); got != before {
		t.Fatalf("in-flight effects survived the reopen:\n got %s\nwant %s", got, before)
	}
	if n := re.Metrics().Compensations.Load(); n != 1 {
		t.Fatalf("Compensations = %d after reopen, want 1", n)
	}
}

// TestOpenServesOnlyAfterRecovery: a request that reaches the peer while
// setup runs gets p2p.ErrNoHandler; after Open it is served; after Close it
// gets ErrNoHandler again.
func TestOpenServesOnlyAfterRecovery(t *testing.T) {
	net := p2p.NewNetwork(0)
	client := net.Join("C")
	ask := func() error {
		_, err := client.Request(bg, "AP1", &p2p.Message{Kind: p2p.KindAdmin, Subject: "documents"})
		return err
	}
	var during error
	p, err := Open(t.TempDir(), net.Join("AP1"), Options{}, wal.SegmentOptions{}, func(p *Peer) error {
		during = ask()
		return p.HostDocument("D.xml", `<D/>`)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(during, p2p.ErrNoHandler) {
		t.Fatalf("request during setup: err = %v, want ErrNoHandler", during)
	}
	if err := ask(); err != nil {
		t.Fatalf("request after Open: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ask(); !errors.Is(err, p2p.ErrNoHandler) {
		t.Fatalf("request after Close: err = %v, want ErrNoHandler", err)
	}
}

// TestOpenFailsOnSetupError: a failing setup fails Open with its error.
func TestOpenFailsOnSetupError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Open(t.TempDir(), p2p.NewNetwork(0).Join("AP1"), Options{}, wal.SegmentOptions{}, func(*Peer) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Open err = %v, want the setup error", err)
	}
}

// TestOpenKeepsDocumentNames: a document hosted under a name that is not a
// file name comes back under that name, with its committed content, and
// the store holds no second document named after the checkpoint file.
func TestOpenKeepsDocumentNames(t *testing.T) {
	dir := t.TempDir()
	open := func() *Peer {
		p, err := Open(dir, p2p.NewNetwork(0).Join("AP1"), Options{}, wal.SegmentOptions{}, func(p *Peer) error {
			return p.HostDocument("D", `<D><v>configured</v></D>`)
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := open()
	loc, err := axml.ParseQuery(`Select v from v in D/v`)
	if err != nil {
		t.Fatal(err)
	}
	txc := p.Begin()
	if _, err := p.Exec(bg, txc, axml.NewReplace(loc, `<v>committed</v>`)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re := open()
	defer re.Close()
	if names := re.Store().Names(); !slices.Equal(names, []string{"D"}) {
		t.Fatalf("store holds %v after reopen, want [D]", names)
	}
	doc, _ := re.Store().Get("D")
	if got := xmldom.MarshalString(doc.Root()); got != `<D><v>committed</v></D>` {
		t.Fatalf("D serves %s after reopen, want the committed value", got)
	}
}

// TestReopenedOriginNeverReusesIDs: the first transaction after a reopen
// gets an ID the previous incarnation never had, so aborting it leaves the
// previous incarnation's committed work alone; every Open is a new
// incarnation.
func TestReopenedOriginNeverReusesIDs(t *testing.T) {
	dir := t.TempDir()
	p := openPeer(t, dir, `<D/>`)
	first := p.Begin()
	execInsert(t, p, first, `<a/>`)
	if err := p.Commit(bg, first); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ids := []string{first.ID}
	for i := 0; i < 3; i++ {
		re := openPeer(t, dir, `<D/>`)
		txc := re.Begin()
		if slices.Contains(ids, txc.ID) {
			t.Fatalf("reopen %d minted %s again (earlier IDs %v)", i+1, txc.ID, ids)
		}
		ids = append(ids, txc.ID)
		if err := re.Abort(bg, txc); err != nil {
			t.Fatal(err)
		}
		doc, _ := re.Store().Get("D.xml")
		if got := xmldom.MarshalString(doc.Root()); got != `<D><a/></D>` {
			t.Fatalf("aborting %s after reopen %d left %s, want the committed <D><a/></D>", txc.ID, i+1, got)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReopenedOriginSparesParticipant: a participant that never restarted
// keeps the work it committed for the origin's previous incarnation when
// the reopened origin aborts its own first transaction.
func TestReopenedOriginSparesParticipant(t *testing.T) {
	net := p2p.NewNetwork(0)
	ap2 := NewPeer(net.Join("AP2"), wal.NewMemory(), Options{})
	if err := ap2.HostDocument("D2.xml", `<D2/>`); err != nil {
		t.Fatal(err)
	}
	ap2.HostUpdateService(services.Descriptor{Name: "W", ResultName: "updateResult", TargetDocument: "D2.xml"},
		`<action type="insert"><data><w/></data><location>Select d from d in D2;</location></action>`)
	dir := t.TempDir()
	open := func() *Peer {
		p, err := Open(dir, net.Join("AP1"), Options{}, wal.SegmentOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	d2 := func() string {
		doc, _ := ap2.Store().Get("D2.xml")
		return xmldom.MarshalString(doc.Root())
	}
	ap1 := open()
	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP2", "W", nil); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	// The commit reaches AP2 one-way.
	deadline := time.Now().Add(5 * time.Second)
	for ap2.Manager().Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("AP2 never settled the commit")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ap1.Close(); err != nil {
		t.Fatal(err)
	}
	ap1 = open()
	defer ap1.Close()
	txc = ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP2", "W", nil); err != nil {
		t.Fatal(err)
	}
	if got := d2(); got != `<D2><w/><w/></D2>` {
		t.Fatalf("AP2 holds %s before the abort, want both inserts", got)
	}
	if err := ap1.Abort(bg, txc); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for ap2.Metrics().Compensations.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("AP2 never compensated the aborted transaction")
		}
		time.Sleep(time.Millisecond)
	}
	if got := d2(); got != `<D2><w/></D2>` {
		t.Fatalf("AP2 holds %s after the abort, want only the committed insert", got)
	}
}
