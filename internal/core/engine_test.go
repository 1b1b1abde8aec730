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

// cluster wires peers over one in-memory network. When sink is set before
// peers are added, every peer traces into it (the trace-shape tests set one
// ring for the whole deployment).
type cluster struct {
	t     *testing.T
	net   *p2p.Network
	peers map[p2p.PeerID]*Peer
	sink  obs.Sink
	// setup, when set before peers are added, gives each peer its
	// transport (wrapping the network's) and log, and may adjust its
	// options; without it a peer gets the bare transport and a MemoryLog.
	setup func(id p2p.PeerID, tr p2p.Transport, opts *Options) (p2p.Transport, wal.Log)
}

func newCluster(t *testing.T) *cluster {
	return &cluster{t: t, net: p2p.NewNetwork(0), peers: make(map[p2p.PeerID]*Peer)}
}

func (c *cluster) add(id p2p.PeerID, opts Options) *Peer {
	if opts.TraceSink == nil {
		opts.TraceSink = c.sink
	}
	tr, log := c.net.Join(id), wal.Log(wal.NewMemory())
	if c.setup != nil {
		tr, log = c.setup(id, tr, &opts)
	}
	p := NewPeer(tr, log, opts)
	c.peers[id] = p
	return p
}

// announce registers service providers in every peer's replication table.
func (c *cluster) announce(service string, providers ...p2p.PeerID) {
	for _, p := range c.peers {
		for _, prov := range providers {
			p.Replicas().AddService(service, prov)
		}
	}
}

// hostEntryService gives a peer a document plus an update service that
// inserts one <entry/> into it — the standard "unit of work" of the
// recovery experiments (local effects that must be compensated on abort).
func hostEntryService(t *testing.T, p *Peer, service, doc string) {
	t.Helper()
	root := strings.TrimSuffix(doc, ".xml")
	if err := p.HostDocument(doc, fmt.Sprintf(`<%s><log/></%s>`, root, root)); err != nil {
		t.Fatal(err)
	}
	p.HostUpdateService(services.Descriptor{
		Name: service, ResultName: "updateResult", TargetDocument: doc,
	}, fmt.Sprintf(`<action type="insert"><data><entry svc=%q/></data><location>Select l from l in %s/log;</location></action>`, service, root))
}

// entryCount counts <entry/> nodes in a peer's document. It reads a
// snapshot taken under the document's latch, since scenario tests count entries
// while asynchronous invocations may still be mutating the document.
func entryCount(t *testing.T, p *Peer, doc string) int {
	t.Helper()
	d, ok := p.Store().Snapshot(doc)
	if !ok {
		t.Fatalf("document %s missing", doc)
	}
	n := 0
	d.Root().Walk(func(x *xmldom.Node) bool {
		if x.Name() == "entry" {
			n++
		}
		return true
	})
	return n
}

func TestLocalTransactionCommit(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	hostEntryService(t, ap1, "S1", "D1.xml")

	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP1", "S1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	if entryCount(t, ap1, "D1.xml") != 1 {
		t.Fatal("entry missing after commit")
	}
	if ap1.Metrics().TxnsCommitted.Load() != 1 {
		t.Fatal("commit metric")
	}
	// Committed work cannot be aborted.
	if err := ap1.Abort(bg, txc); err != nil {
		t.Fatal(err) // Abort on terminal context is a no-op, not an error
	}
	if entryCount(t, ap1, "D1.xml") != 1 {
		t.Fatal("commit was undone")
	}
}

func TestRemoteInvokeAndAbortCascades(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	hostEntryService(t, ap1, "S1", "D1.xml")
	hostEntryService(t, ap2, "S2", "D2.xml")

	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP1", "S1", nil); err != nil {
		t.Fatal(err)
	}
	out, err := ap1.Call(bg, txc, "AP2", "S2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0], "insertedID") {
		t.Fatalf("remote result = %v", out)
	}
	if entryCount(t, ap2, "D2.xml") != 1 {
		t.Fatal("remote effect missing")
	}

	if err := ap1.Abort(bg, txc); err != nil {
		t.Fatal(err)
	}
	if entryCount(t, ap1, "D1.xml") != 0 {
		t.Fatal("local effect not compensated")
	}
	if entryCount(t, ap2, "D2.xml") != 0 {
		t.Fatal("remote effect not compensated (abort did not cascade)")
	}
	if ap1.Metrics().AbortsSent.Load() != 1 || ap2.Metrics().AbortsReceived.Load() != 1 {
		t.Fatalf("abort messages: sent=%d received=%d",
			ap1.Metrics().AbortsSent.Load(), ap2.Metrics().AbortsReceived.Load())
	}
}

func TestRemoteInvokeCommitCascades(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	hostEntryService(t, ap2, "S2", "D2.xml")

	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP2", "S2", nil); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	// The participant context is finished and a late abort is refused.
	ap2.handleAbort(&p2p.Message{Kind: p2p.KindAbort, Txn: txc.ID, From: "AP1"})
	if entryCount(t, ap2, "D2.xml") != 1 {
		t.Fatal("stray abort undid committed work")
	}
}

func TestPeerIndependentCompensation(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{PeerIndependent: true})
	ap2 := c.add("AP2", Options{PeerIndependent: true})
	hostEntryService(t, ap2, "S2", "D2.xml")

	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP2", "S2", nil); err != nil {
		t.Fatal(err)
	}
	// The invocation returned a compensating-service definition.
	kids := txc.Children()
	if len(kids) != 1 || kids[0].Comp == nil {
		t.Fatalf("children = %+v", kids)
	}
	if ap2.Metrics().CompServicesBuilt.Load() != 1 {
		t.Fatal("comp def not built at participant")
	}

	if err := ap1.Abort(bg, txc); err != nil {
		t.Fatal(err)
	}
	if entryCount(t, ap2, "D2.xml") != 0 {
		t.Fatal("shipped compensation did not restore the participant")
	}
	// No abort message was needed: the comp def was executed instead.
	if ap2.Metrics().AbortsReceived.Load() != 0 {
		t.Fatal("peer-independent abort still sent Abort messages")
	}
	if ap1.Metrics().CompServicesRun.Load() != 1 || ap2.Metrics().Compensations.Load() != 1 {
		t.Fatal("compensation metrics")
	}
}

func TestEmbeddedCallMaterializesRemoteService(t *testing.T) {
	// The AXML flow: AP1 hosts a document embedding a call to getPoints at
	// AP2; querying it lazily invokes AP2 and merges results.
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	if err := ap1.HostDocument("ATPList.xml", `<ATPList><player>
	    <name><lastname>Federer</lastname></name>
	    <axml:sc mode="replace" methodName="getPoints" serviceURL="AP2"/>
	  </player></ATPList>`); err != nil {
		t.Fatal(err)
	}
	if err := ap2.HostDocument("Points.xml", `<Points><row player="Federer"><points>475</points></row></Points>`); err != nil {
		t.Fatal(err)
	}
	ap2.HostQueryService(services.Descriptor{
		Name: "getPoints", ResultName: "points", TargetDocument: "Points.xml",
	}, `Select r/points from r in Points//row`)

	txc := ap1.Begin()
	q, _ := axml.ParseQuery(`Select p/points from p in ATPList//player where p/name/lastname = Federer`)
	res, err := ap1.Exec(bg, txc, axml.NewQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(got) != 1 || got[0] != "475" {
		t.Fatalf("materialized query = %v", got)
	}
	// The chain recorded the remote invocation.
	if ch := txc.Chain(); !ch.Contains("AP2") || ch.ParentOf("AP2") != "AP1" {
		t.Fatalf("chain = %s", txc.Chain())
	}
	if err := ap1.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	// Abort after commit changes nothing; the materialized node persists.
	doc, _ := ap1.Store().Get("ATPList.xml")
	if !strings.Contains(xmldom.MarshalString(doc.Root()), "<points>475</points>") {
		t.Fatal("materialized result missing after commit")
	}
}

func TestMaterializationAbortRestoresCallerDocument(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	if err := ap1.HostDocument("D.xml", `<D><axml:sc mode="replace" methodName="getVal" serviceURL="AP2"/></D>`); err != nil {
		t.Fatal(err)
	}
	ap2.HostService(services.StaticService(
		services.Descriptor{Name: "getVal", ResultName: "val"}, `<val>42</val>`))

	snapshot, _ := ap1.Store().Snapshot("D.xml")
	txc := ap1.Begin()
	q, _ := axml.ParseQuery(`Select d/val from d in D`)
	res, err := ap1.Exec(bg, txc, axml.NewQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(got) != 1 || got[0] != "42" {
		t.Fatalf("result = %v", got)
	}
	if err := ap1.Abort(bg, txc); err != nil {
		t.Fatal(err)
	}
	live, _ := ap1.Store().Get("D.xml")
	if !live.Equal(snapshot) {
		t.Fatal("abort did not undo the query's materialization")
	}
}

func TestFaultHandlerRetrySameProvider(t *testing.T) {
	// <axml:retry times="3"> against a service that fails twice then
	// succeeds: forward recovery without involving the application.
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	var calls atomic.Int32
	ap2.HostService(services.NewFuncService(
		services.Descriptor{Name: "flaky", ResultName: "val"},
		func(ctx context.Context, params map[string]string) ([]string, error) {
			if calls.Add(1) <= 2 {
				return nil, &services.Fault{Name: "A", Msg: "transient"}
			}
			return []string{`<val>ok</val>`}, nil
		}))
	if err := ap1.HostDocument("D.xml", `<D>
	  <axml:sc mode="replace" methodName="flaky" serviceURL="AP2">
	    <axml:catch faultName="A"><axml:retry times="3" wait="1ms"/></axml:catch>
	  </axml:sc>
	</D>`); err != nil {
		t.Fatal(err)
	}

	txc := ap1.Begin()
	q, _ := axml.ParseQuery(`Select d/val from d in D`)
	res, err := ap1.Exec(bg, txc, axml.NewQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(got) != 1 || got[0] != "ok" {
		t.Fatalf("result = %v", got)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d", calls.Load())
	}
	m := ap1.Metrics()
	if m.ForwardRecoveries.Load() != 1 || m.RetriesAttempted.Load() != 2 {
		t.Fatalf("forward=%d retries=%d", m.ForwardRecoveries.Load(), m.RetriesAttempted.Load())
	}
}

func TestFaultHandlerRetryOnReplica(t *testing.T) {
	// The failing provider never recovers; the retry handler switches to a
	// replica provider from the replication table.
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	ap2b := c.add("AP2b", Options{})
	ap2.HostService(services.NewFuncService(
		services.Descriptor{Name: "svc", ResultName: "val"},
		func(ctx context.Context, params map[string]string) ([]string, error) {
			return nil, &services.Fault{Name: "A"}
		}))
	ap2b.HostService(services.StaticService(
		services.Descriptor{Name: "svc", ResultName: "val"}, `<val>replica</val>`))
	c.announce("svc", "AP2", "AP2b")

	if err := ap1.HostDocument("D.xml", `<D>
	  <axml:sc mode="replace" methodName="svc" serviceURL="AP2">
	    <axml:catchAll><axml:retry times="2"/></axml:catchAll>
	  </axml:sc>
	</D>`); err != nil {
		t.Fatal(err)
	}
	txc := ap1.Begin()
	q, _ := axml.ParseQuery(`Select d/val from d in D`)
	res, err := ap1.Exec(bg, txc, axml.NewQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(got) != 1 || got[0] != "replica" {
		t.Fatalf("result = %v", got)
	}
}

func TestFaultHandlerExplicitAlternative(t *testing.T) {
	// The retry block names the replacement call explicitly:
	// <axml:retry><axml:sc serviceURL="AP3" .../></axml:retry>.
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	c.add("AP2", Options{}) // hosts nothing: invocation fails
	ap3 := c.add("AP3", Options{})
	ap3.HostService(services.StaticService(
		services.Descriptor{Name: "svc", ResultName: "val"}, `<val>alt</val>`))

	if err := ap1.HostDocument("D.xml", `<D>
	  <axml:sc mode="replace" methodName="svc" serviceURL="AP2">
	    <axml:catchAll><axml:retry times="1"><axml:sc methodName="svc" serviceURL="AP3"/></axml:retry></axml:catchAll>
	  </axml:sc>
	</D>`); err != nil {
		t.Fatal(err)
	}
	txc := ap1.Begin()
	q, _ := axml.ParseQuery(`Select d/val from d in D`)
	res, err := ap1.Exec(bg, txc, axml.NewQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(got) != 1 || got[0] != "alt" {
		t.Fatalf("result = %v", got)
	}
}

func TestFaultHookHandlesFault(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	ap2.HostService(services.NewFuncService(
		services.Descriptor{Name: "svc", ResultName: "val"},
		func(ctx context.Context, params map[string]string) ([]string, error) {
			return nil, &services.Fault{Name: "B"}
		}))
	if err := ap1.HostDocument("D.xml", `<D>
	  <axml:sc mode="replace" methodName="svc" serviceURL="AP2">
	    <axml:catch faultName="B"/>
	  </axml:sc>
	</D>`); err != nil {
		t.Fatal(err)
	}
	var hookRan atomic.Bool
	ap1.RegisterFaultHook("svc", "B", func(txn string, sc *axml.ServiceCall, fault string) error {
		hookRan.Store(true)
		return nil // handled
	})
	txc := ap1.Begin()
	q, _ := axml.ParseQuery(`Select d/val from d in D`)
	if _, err := ap1.Exec(bg, txc, axml.NewQuery(q)); err != nil {
		t.Fatal(err)
	}
	if !hookRan.Load() {
		t.Fatal("hook never ran")
	}
	if ap1.Metrics().ForwardRecoveries.Load() != 1 {
		t.Fatal("hook success should count as forward recovery")
	}
}

func TestUnhandledFaultPropagates(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	ap2.HostService(services.NewFuncService(
		services.Descriptor{Name: "svc", ResultName: "val"},
		func(ctx context.Context, params map[string]string) ([]string, error) {
			return nil, &services.Fault{Name: "X"}
		}))
	if err := ap1.HostDocument("D.xml", `<D>
	  <axml:sc mode="replace" methodName="svc" serviceURL="AP2">
	    <axml:catch faultName="OTHER"><axml:retry times="5"/></axml:catch>
	  </axml:sc>
	</D>`); err != nil {
		t.Fatal(err)
	}
	txc := ap1.Begin()
	q, _ := axml.ParseQuery(`Select d/val from d in D`)
	_, err := ap1.Exec(bg, txc, axml.NewQuery(q))
	if err == nil {
		t.Fatal("fault swallowed")
	}
	var f *services.Fault
	if !errors.As(err, &f) || f.Name != "X" {
		t.Fatalf("err = %v", err)
	}
	if ap1.Metrics().BackwardRecoveries.Load() != 1 {
		t.Fatal("unmatched fault should count backward recovery")
	}
}

func TestLockConflictSurfacesAsFault(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{LockTimeout: 30 * time.Millisecond})
	hostEntryService(t, ap1, "S1", "D1.xml")

	tx1 := ap1.Begin()
	if _, err := ap1.Call(bg, tx1, "AP1", "S1", nil); err != nil {
		t.Fatal(err)
	}
	tx2 := ap1.Begin()
	_, err := ap1.Call(bg, tx2, "AP1", "S1", nil)
	var f *services.Fault
	if !errors.As(err, &f) || f.Name != "lock-timeout" {
		t.Fatalf("err = %v", err)
	}
	// After tx1 finishes, tx2 can proceed.
	if err := ap1.Commit(bg, tx1); err != nil {
		t.Fatal(err)
	}
	if _, err := ap1.Call(bg, tx2, "AP1", "S1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Abort(bg, tx2); err != nil {
		t.Fatal(err)
	}
	if entryCount(t, ap1, "D1.xml") != 1 {
		t.Fatal("isolation broken: expected exactly tx1's entry")
	}
}

func TestExecOnFinishedTransactionRefused(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	hostEntryService(t, ap1, "S1", "D1.xml")
	txc := ap1.Begin()
	if err := ap1.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	loc, _ := axml.ParseQuery(`Select l from l in D1/log`)
	if _, err := ap1.Exec(bg, txc, axml.NewInsert(loc, `<entry/>`)); err == nil {
		t.Fatal("Exec on committed txn accepted")
	}
	if _, err := ap1.Call(bg, txc, "AP1", "S1", nil); err == nil {
		t.Fatal("Call on committed txn accepted")
	}
	if err := ap1.Commit(bg, txc); err == nil {
		t.Fatal("double commit accepted")
	}
}

func TestAdminDescriptors(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	hostEntryService(t, ap2, "S2", "D2.xml")
	resp, err := ap1.Transport().Request(context.Background(), "AP2",
		&p2p.Message{Kind: p2p.KindAdmin, Subject: "descriptors"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Payload), `name="S2"`) {
		t.Fatalf("descriptors = %s", resp.Payload)
	}
	resp, err = ap1.Transport().Request(context.Background(), "AP2",
		&p2p.Message{Kind: p2p.KindAdmin, Subject: "documents"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Payload), "D2.xml") {
		t.Fatalf("documents = %s", resp.Payload)
	}
}
