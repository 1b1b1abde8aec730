package axmltx

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
)

// Engine micro-benchmarks: the cost of the transactional fast paths
// (independent of the experiment suite). These quantify the substrate the
// paper's "very high concurrent access" characteristic leans on.

func benchPeerPair(b *testing.B) (*core.Peer, *core.Peer) {
	b.Helper()
	net := p2p.NewNetwork(0)
	ap1 := core.NewPeer(net.Join("AP1"), wal.NewMemory(), core.Options{})
	ap2 := core.NewPeer(net.Join("AP2"), wal.NewMemory(), core.Options{})
	if err := ap2.HostDocument("D2.xml", `<D2><slot v="0"/></D2>`); err != nil {
		b.Fatal(err)
	}
	// Replace keeps the document at constant size across iterations.
	ap2.HostUpdateService(services.Descriptor{
		Name: "W", ResultName: "updateResult", TargetDocument: "D2.xml",
	}, `<action type="replace"><data><slot v="1"/></data><location>Select s from s in D2/slot;</location></action>`)
	return ap1, ap2
}

// BenchmarkLocalTxnCommit measures begin → local insert + delete → commit.
// The transaction removes what it inserted so the document stays at steady
// state across iterations (a growing document would skew the numbers).
func BenchmarkLocalTxnCommit(b *testing.B) {
	net := p2p.NewNetwork(0)
	ap1 := core.NewPeer(net.Join("AP1"), wal.NewMemory(), core.Options{})
	if err := ap1.HostDocument("D.xml", `<D><log/></D>`); err != nil {
		b.Fatal(err)
	}
	loc, _ := axml.ParseQuery(`Select l from l in D/log`)
	del, _ := axml.ParseQuery(`Select e from e in D//entry`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txc := ap1.Begin()
		if _, err := ap1.Exec(bg, txc, axml.NewInsert(loc, `<entry/>`)); err != nil {
			b.Fatal(err)
		}
		if _, err := ap1.Exec(bg, txc, axml.NewDelete(del)); err != nil {
			b.Fatal(err)
		}
		if err := ap1.Commit(bg, txc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalTxnAbort measures begin → insert → abort (compensation).
func BenchmarkLocalTxnAbort(b *testing.B) {
	net := p2p.NewNetwork(0)
	ap1 := core.NewPeer(net.Join("AP1"), wal.NewMemory(), core.Options{})
	if err := ap1.HostDocument("D.xml", `<D><log/></D>`); err != nil {
		b.Fatal(err)
	}
	loc, _ := axml.ParseQuery(`Select l from l in D/log`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txc := ap1.Begin()
		if _, err := ap1.Exec(bg, txc, axml.NewInsert(loc, `<entry/>`)); err != nil {
			b.Fatal(err)
		}
		if err := ap1.Abort(bg, txc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteInvokeCommit measures a one-participant distributed
// transaction over the in-memory transport.
func BenchmarkRemoteInvokeCommit(b *testing.B) {
	ap1, _ := benchPeerPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txc := ap1.Begin()
		if _, err := ap1.Call(bg, txc, "AP2", "W", nil); err != nil {
			b.Fatal(err)
		}
		if err := ap1.Commit(bg, txc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentOrigins measures parallel distributed transactions
// from independent origin peers against separate participants.
func BenchmarkConcurrentOrigins(b *testing.B) {
	net := p2p.NewNetwork(0)
	var seq atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := seq.Add(1)
		origin := core.NewPeer(net.Join(p2p.PeerID(fmt.Sprintf("O%d", n))), wal.NewMemory(), core.Options{})
		host := core.NewPeer(net.Join(p2p.PeerID(fmt.Sprintf("H%d", n))), wal.NewMemory(), core.Options{})
		if err := host.HostDocument("D.xml", `<D><slot v="0"/></D>`); err != nil {
			b.Error(err)
			return
		}
		host.HostUpdateService(services.Descriptor{
			Name: "W", ResultName: "updateResult", TargetDocument: "D.xml",
		}, `<action type="replace"><data><slot v="1"/></data><location>Select s from s in D/slot;</location></action>`)
		for pb.Next() {
			txc := origin.Begin()
			if _, err := origin.Call(bg, txc, host.ID(), "W", nil); err != nil {
				b.Error(err)
				return
			}
			if err := origin.Commit(bg, txc); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkStoreDisjointDocs measures one peer's transaction throughput
// when every goroutine owns its own document: the local_rw shape (an
// ATPList of players, four citizenship queries to one points replace) with
// one document per RunParallel goroutine. Run with -cpu 1,2,4 it traces how
// throughput follows GOMAXPROCS when transactions on different documents
// need not wait for each other.
func BenchmarkStoreDisjointDocs(b *testing.B) {
	const players, citizenships = 1000, 50
	net := p2p.NewNetwork(0)
	peer := core.NewPeer(net.Join("P1"), wal.NewMemory(), core.Options{})
	// RunParallel starts GOMAXPROCS goroutines; host one document for each.
	for n := 1; n <= runtime.GOMAXPROCS(0); n++ {
		var doc strings.Builder
		fmt.Fprintf(&doc, `<ATP%d>`, n)
		for i := 0; i < players; i++ {
			fmt.Fprintf(&doc, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name>`+
				`<citizenship>C%d</citizenship><points>%d</points></player>`, i+1, i, i, i%citizenships, 100+i)
		}
		fmt.Fprintf(&doc, `</ATP%d>`, n)
		if err := peer.HostDocument(fmt.Sprintf("ATP%d.xml", n), doc.String()); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seq.Add(1)
		for i := 0; pb.Next(); i++ {
			var action *axml.Action
			if i%5 == 4 {
				q, _ := axml.ParseQuery(fmt.Sprintf("Select p/points from p in ATP%d//player where p/name/lastname = L%d", n, i%players))
				action = axml.NewReplace(q, fmt.Sprintf("<points>%d</points>", i))
			} else {
				q, _ := axml.ParseQuery(fmt.Sprintf("Select p/name/lastname, p/points from p in ATP%d//player where p/citizenship = C%d", n, i%citizenships))
				action = axml.NewQuery(q)
			}
			txc := peer.Begin()
			if _, err := peer.Exec(bg, txc, action); err != nil {
				b.Error(err)
				return
			}
			if err := peer.Commit(bg, txc); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkQueryEvaluation measures pure (non-materializing) query
// evaluation over a 200-player document.
func BenchmarkQueryEvaluation(b *testing.B) {
	net := p2p.NewNetwork(0)
	ap1 := core.NewPeer(net.Join("AP1"), wal.NewMemory(), core.Options{})
	var doc string
	{
		doc = `<ATPList>`
		for i := 1; i <= 200; i++ {
			doc += fmt.Sprintf(`<player rank="%d"><name><lastname>L%d</lastname></name><citizenship>C%d</citizenship></player>`, i, i, i%20)
		}
		doc += `</ATPList>`
	}
	if err := ap1.HostDocument("ATPList.xml", doc); err != nil {
		b.Fatal(err)
	}
	q, _ := axml.ParseQuery(`Select p/citizenship from p in ATPList//player where p/name/lastname = L137`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txc := ap1.Begin()
		res, err := ap1.Exec(bg, txc, axml.NewQuery(q))
		if err != nil || len(res.Query.Items) != 1 {
			b.Fatalf("res=%v err=%v", res, err)
		}
		if err := ap1.Commit(bg, txc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompensationConstruction isolates BuildCompensation over a
// 200-operation log.
func BenchmarkCompensationConstruction(b *testing.B) {
	log := wal.NewMemory()
	store := axml.NewStore(log)
	if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
		b.Fatal(err)
	}
	loc, _ := axml.ParseQuery(`Select l from l in D/log`)
	for i := 0; i < 200; i++ {
		if _, err := store.Apply("T", axml.NewInsert(loc, `<entry/>`), nil, axml.Lazy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.BuildCompensation(log, "T"); len(got) != 200 {
			b.Fatalf("actions = %d", len(got))
		}
	}
}
