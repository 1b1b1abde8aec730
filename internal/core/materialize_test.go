package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// remoteCallsDoc embeds one replace-mode call per provider: sN at PN, with
// an old <rN/> result.
func remoteCallsDoc(providers int) string {
	var b strings.Builder
	b.WriteString("<D>")
	for i := 1; i <= providers; i++ {
		fmt.Fprintf(&b, `<axml:sc methodName="s%d" serviceURL="P%d" mode="replace"><r%d>old</r%d></axml:sc>`, i, i, i, i)
	}
	b.WriteString("</D>")
	return b.String()
}

// hostRemoteCalls joins providers P1..Pn, each serving sN through body, and
// an origin AP1 hosting remoteCallsDoc(n) as D.xml.
func hostRemoteCalls(t *testing.T, n int, body func(i int) ([]string, error)) *Peer {
	t.Helper()
	net := p2p.NewNetwork(0)
	for i := 1; i <= n; i++ {
		pr := NewPeer(net.Join(p2p.PeerID(fmt.Sprintf("P%d", i))), wal.NewMemory(), Options{})
		pr.HostService(services.NewFuncService(
			services.Descriptor{Name: fmt.Sprintf("s%d", i), ResultName: fmt.Sprintf("r%d", i)},
			func(contextT, map[string]string) ([]string, error) { return body(i) }))
	}
	origin := NewPeer(net.Join("AP1"), wal.NewMemory(), Options{})
	if err := origin.HostDocument("D.xml", remoteCallsDoc(n)); err != nil {
		t.Fatal(err)
	}
	return origin
}

// queryAllResults runs one transaction at origin whose lazy query needs
// every rN of D.xml, so one materialization round invokes all n calls as
// one batch, and commits it.
func queryAllResults(t *testing.T, origin *Peer, n int) error {
	t.Helper()
	var sel []string
	for i := 1; i <= n; i++ {
		sel = append(sel, fmt.Sprintf("d/r%d", i))
	}
	q, err := axml.ParseQuery("Select " + strings.Join(sel, ", ") + " from d in D")
	if err != nil {
		t.Fatal(err)
	}
	txc := origin.Begin()
	if _, err := origin.Exec(bg, txc, axml.NewQuery(q)); err != nil {
		_ = origin.Abort(bg, txc)
		return err
	}
	return origin.Commit(bg, txc)
}

// TestMaterializeOverlapsRemoteCalls: two providers' services each wait on
// one shared two-party barrier, so the transaction succeeds only if the
// origin has both round trips in flight at once. Serialized round trips
// fail deterministically: the first service gives up at the barrier's
// timeout.
func TestMaterializeOverlapsRemoteCalls(t *testing.T) {
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	origin := hostRemoteCalls(t, 2, func(i int) ([]string, error) {
		mu.Lock()
		if arrived++; arrived == 2 {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
			return []string{fmt.Sprintf("<r%d>new</r%d>", i, i)}, nil
		case <-time.After(2 * time.Second):
			return nil, &services.Fault{Name: "barrier", Msg: "the other call never arrived"}
		}
	})
	if err := queryAllResults(t, origin, 2); err != nil {
		t.Fatalf("round trips did not overlap: %v", err)
	}
}

// TestMaterializeReplyOrderInvisible: providers answer one batch after
// delays in increasing, decreasing and random order, so the round trips
// complete in different orders; the origin's WAL and document must be
// byte-identical in every case.
func TestMaterializeReplyOrderInvisible(t *testing.T) {
	const n = 4
	orders := map[string][]int{
		"increasing": {1, 2, 3, 4},
		"decreasing": {4, 3, 2, 1},
		"random":     rand.New(rand.NewSource(7)).Perm(n),
	}
	var wantLog []byte
	var wantDoc, wantOrder string
	for _, name := range []string{"increasing", "decreasing", "random"} {
		delays := orders[name]
		origin := hostRemoteCalls(t, n, func(i int) ([]string, error) {
			time.Sleep(time.Duration(delays[i-1]) * 3 * time.Millisecond)
			return []string{fmt.Sprintf("<r%d>new</r%d>", i, i)}, nil
		})
		if err := queryAllResults(t, origin, n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var log []byte
		for _, r := range origin.Store().Log().Records() {
			log = append(log, wal.EncodeRecord(r)...)
		}
		d, _ := origin.Store().Snapshot("D.xml")
		doc := xmldom.MarshalString(d.Root())
		if wantLog == nil {
			wantLog, wantDoc, wantOrder = log, doc, name
			continue
		}
		if !bytes.Equal(log, wantLog) {
			t.Fatalf("origin WAL differs between %s and %s reply order", name, wantOrder)
		}
		if doc != wantDoc {
			t.Fatalf("origin document differs between %s and %s reply order:\n%s\n%s", name, wantOrder, doc, wantDoc)
		}
	}
	if !strings.Contains(wantDoc, "<r4>new</r4>") {
		t.Fatalf("calls were not materialized: %s", wantDoc)
	}
}
