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
	"axmltx/internal/query"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
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
		if err := peer.HostDocument(fmt.Sprintf("ATP%d.xml", n), playersDoc(fmt.Sprintf("ATP%d", n), players, citizenships)); err != nil {
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

// playersDoc builds the local_rw document shape under root element root:
// per player a rank, a name, one of citizenships citizenships and a points
// element.
func playersDoc(root string, players, citizenships int) string {
	var doc strings.Builder
	fmt.Fprintf(&doc, `<%s>`, root)
	for i := 0; i < players; i++ {
		fmt.Fprintf(&doc, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name>`+
			`<citizenship>C%d</citizenship><points>%d</points></player>`, i+1, i, i, i%citizenships, 100+i)
	}
	fmt.Fprintf(&doc, `</%s>`, root)
	return doc.String()
}

// BenchmarkParse measures the XML parser on the three shapes that reach
// it: a whole 1 000-player document (checkpoint load, AddParsed), one
// player fragment of a sharded league parsed into its destination with
// persisted IDs (assembly), and an update service's action (every remote
// update parses one).
func BenchmarkParse(b *testing.B) {
	atp := playersDoc("ATPList", 1000, 20)
	b.Run("atp_1000", func(b *testing.B) {
		b.SetBytes(int64(len(atp)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmldom.ParseString("ATPList.xml", atp); err != nil {
				b.Fatal(err)
			}
		}
	})

	league := xmldom.MustParse("league.xml", playersDoc("league", 32, 20))
	_, frags, err := axml.SplitDocument(league, 4)
	if err != nil || len(frags) == 0 {
		b.Fatalf("SplitDocument: %d fragments, %v", len(frags), err)
	}
	frag := frags[0].XML
	b.Run("league_fragment", func(b *testing.B) {
		b.SetBytes(int64(len(frag)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := xmldom.NewDocument("league.xml")
			if _, err := xmldom.RestoreFragment(dst, frag, "axml:nodeid"); err != nil {
				b.Fatal(err)
			}
		}
	})

	action := `<action type="replace"><data><player rank="7"><name><lastname>L7</lastname></name></player></data>` +
		`<location>Select p from p in ATPList//player where p/rank = 7;</location></action>`
	b.Run("update_action", func(b *testing.B) {
		b.SetBytes(int64(len(action)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := axml.ParseAction(action); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryEvaluation measures pure (non-materializing) query
// evaluation: a one-row query through a peer transaction over 200 players,
// and local_rw's two query shapes over 5 000 players, once through
// Store.Apply (materialization planning, latch, log) and once through the
// evaluator alone.
func BenchmarkQueryEvaluation(b *testing.B) {
	b.Run("peer_200", func(b *testing.B) {
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
	})

	const players, citizenships = 5000, 50
	store := axml.NewStore(wal.NewMemory())
	if _, err := store.AddParsed("ATP.xml", playersDoc("ATP", players, citizenships)); err != nil {
		b.Fatal(err)
	}
	read, _ := axml.ParseQuery(`Select p/name/lastname, p/points from p in ATP//player where p/citizenship = C7`)
	points, _ := axml.ParseQuery(`Select p/points from p in ATP//player where p/name/lastname = L7`)
	shapes := []struct {
		name  string
		q     *query.Query
		items int
		// action is what local_rw applies for this shape.
		action func(i int) *axml.Action
	}{
		{"read", read, 2 * players / citizenships, func(int) *axml.Action { return axml.NewQuery(read) }},
		{"replace", points, 1, func(i int) *axml.Action { return axml.NewReplace(points, fmt.Sprintf("<points>%d</points>", i)) }},
	}
	for _, sh := range shapes {
		b.Run("apply_5000/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := store.Apply(fmt.Sprintf("T%d", i), sh.action(i), nil, axml.Lazy); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("eval_5000/"+sh.name, func(b *testing.B) {
			doc, ok := store.Snapshot("ATP.xml")
			if !ok {
				b.Fatal("no snapshot")
			}
			ev := store.Evaluator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ev.Eval(doc, sh.q)
				if err != nil || len(res.Items) != sh.items {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
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
