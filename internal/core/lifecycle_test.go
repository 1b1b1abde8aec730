package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/p2p"
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
