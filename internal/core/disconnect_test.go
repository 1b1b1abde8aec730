package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/xmldom"
)

// fig2 builds the paper's Figure 2 topology for the disconnection
// scenarios: [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]. AP2 is the working
// origin of the transaction's interesting subtree: the transaction is
// submitted at AP1 (a super peer) which invokes S2@AP2; AP2 invokes S3@AP3
// and S4@AP4; AP3 invokes S6@AP6; AP4 invokes S5@AP5.
//
// For the disconnection tests the S3/S6 branch runs asynchronously (the
// paper's data-intensive flow), driven by explicit steps so that each
// scenario's timing is deterministic.
type fig2 struct {
	c     *cluster
	peers map[p2p.PeerID]*Peer
}

func buildFig2(t *testing.T, c *cluster) *fig2 {
	t.Helper()
	f := &fig2{c: c, peers: make(map[p2p.PeerID]*Peer)}
	for _, id := range []p2p.PeerID{"AP1", "AP2", "AP3", "AP4", "AP5", "AP6"} {
		opts := Options{}
		if id == "AP1" {
			opts.Super = true
		}
		f.peers[id] = c.add(id, opts)
	}
	hostEntryService(t, f.peers["AP5"], "S5", "D5.xml")
	hostEntryService(t, f.peers["AP6"], "S6", "D6.xml")
	hostEntryService(t, f.peers["AP4"], "S4sub", "D4.xml") // AP4's own work
	hostEntryService(t, f.peers["AP3"], "S3sub", "D3.xml") // AP3's own work
	return f
}

// startTxn begins the transaction at AP1 and builds the chain down to AP2
// by invoking a trivial S2 there.
func (f *fig2) startTxn(t *testing.T) (*Context, *Context) {
	t.Helper()
	hostEntryService(t, f.peers["AP2"], "S2", "D2.xml")
	txc := f.peers["AP1"].Begin()
	if _, err := f.peers["AP1"].Call(bg, txc, "AP2", "S2", nil); err != nil {
		t.Fatal(err)
	}
	ctx2, ok := f.peers["AP2"].Manager().Get(txc.ID)
	if !ok {
		t.Fatal("AP2 has no context")
	}
	return txc, ctx2
}

func TestF2aLeafDisconnectionDetectedByParent(t *testing.T) {
	// (a) AP6 disconnects; AP3 detects it when invoking S6 and follows the
	// nested recovery protocol (here: no handler, so abort).
	c := newCluster(t)
	f := buildFig2(t, c)
	txc, ctx2 := f.startTxn(t)
	_ = ctx2

	// AP2 invokes S3sub at AP3 so AP3 joins the chain with local effects.
	ap2 := f.peers["AP2"]
	ctx2got, _ := ap2.Manager().Get(txc.ID)
	if _, err := ap2.Call(bg, ctx2got, "AP3", "S3sub", nil); err != nil {
		t.Fatal(err)
	}
	// AP3 now invokes S6@AP6 — but AP6 has disconnected.
	c.net.Disconnect("AP6")
	ap3 := f.peers["AP3"]
	ctx3, _ := ap3.Manager().Get(txc.ID)
	_, err := ap3.Call(bg, ctx3, "AP6", "S6", nil)
	if !errors.Is(err, p2p.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if ap3.Metrics().DisconnectsDetected.Load() != 1 {
		t.Fatal("disconnection not detected")
	}
	// Nested recovery: abort the whole transaction from the origin.
	if err := f.peers["AP1"].Abort(bg, txc); err != nil {
		t.Fatal(err)
	}
	if entryCount(t, ap3, "D3.xml") != 0 || entryCount(t, ap2, "D2.xml") != 0 {
		t.Fatal("effects not compensated after leaf disconnection")
	}
}

func TestF2bParentDisconnectionDetectedByChild(t *testing.T) {
	// (b) AP3 invokes S6@AP6 asynchronously, then disconnects; AP6 detects
	// the death when returning results and redirects them to AP2 (next in
	// the active peer list), which recovers forward by re-invoking S3 on a
	// replica AP3b, reusing AP6's materialized results.
	c := newCluster(t)
	ring := obs.NewRing(0)
	c.sink = ring
	f := buildFig2(t, c)

	// S3: composite service at AP3 — does local work, then invokes S6
	// asynchronously, then "dies" before AP6 can return results.
	ap3 := f.peers["AP3"]
	release := make(chan struct{})
	ap3.HostService(services.NewFuncService(
		services.Descriptor{Name: "S3", ResultName: "updateResult", TargetDocument: "D3.xml"},
		func(cctx context.Context, params map[string]string) ([]string, error) {
			env, _ := EnvFrom(cctx)
			if _, err := env.Peer.Call(bg, env.Txn, "AP3", "S3sub", nil); err != nil {
				return nil, err
			}
			if err := env.Peer.CallAsync(bg, env.Txn, "AP6", "S6", nil); err != nil {
				return nil, err
			}
			return []string{`<updateResult pending="S6"/>`}, nil
		}))

	// Replica of S3 at AP3b: consumes reused S6 results instead of
	// re-invoking AP6 (count S6 executions to prove reuse).
	ap3b := c.add("AP3b", Options{})
	if err := ap3b.HostDocument("D3.xml", `<D3><axml:sc mode="replace" methodName="S6" serviceURL="AP6"/></D3>`); err != nil {
		t.Fatal(err)
	}
	ap3b.HostQueryService(servicesDescriptor("S3", "D3.xml"), `Select d/updateResult from d in D3`)

	var s6Calls atomic.Int32
	wrapCount(f.peers["AP6"], "S6", &s6Calls)

	// Gate S6 so it completes only after AP3 has died.
	inner, _ := f.peers["AP6"].Registry().Get("S6")
	f.peers["AP6"].Registry().Register(services.NewFuncService(inner.Descriptor(),
		func(cctx context.Context, params map[string]string) ([]string, error) {
			<-release
			env, _ := EnvFrom(cctx)
			return inner.Invoke(cctx, &services.Request{Txn: env.Txn.ID, Params: params})
		}))

	txc, ctx2 := f.startTxn(t)
	ap2 := f.peers["AP2"]
	for _, p := range f.peers {
		p.Replicas().AddService("S3", "AP3")
		p.Replicas().AddService("S3", "AP3b")
	}
	ap3b.Replicas().AddService("S6", "AP6")

	recovered := make(chan struct{}, 1)
	ap2.OnResult(func(txn string, resp *InvokeResponse) {
		if resp.Service == "S3" {
			recovered <- struct{}{}
		}
	})
	if _, err := ap2.Call(bg, ctx2, "AP3", "S3", nil); err != nil {
		t.Fatal(err)
	}
	// AP3 dies; unblock S6 at AP6, whose result push AP6→AP3 now fails.
	c.net.Disconnect("AP3")
	close(release)

	select {
	case <-recovered:
	case <-time.After(5 * time.Second):
		t.Fatal("AP2 never recovered via redirect + replica")
	}
	if err := f.peers["AP1"].Commit(bg, txc); err != nil {
		t.Fatal(err)
	}

	// AP6 redirected its results past the dead parent. It counts the redirect
	// and then ends its span only after its Send to AP2 returns, and AP2's
	// whole recovery — all this test has waited for so far — can finish first.
	waitFor(t, func() bool {
		return findSpan(ring.Trace(txc.ID), byKind(obs.KindRedirect, "AP6", "S6")) != nil
	})
	if f.peers["AP6"].Metrics().Redirects.Load() != 1 {
		t.Error("AP6 did not redirect")
	}
	if ap2.Metrics().Redirects.Load() != 1 {
		t.Error("AP2 did not receive the redirect")
	}
	// Work reuse: S6 ran exactly once; AP3b consumed the salvaged result.
	if got := s6Calls.Load(); got != 1 {
		t.Errorf("S6 executed %d times, want 1 (reuse failed)", got)
	}
	if ap3b.Metrics().WorkReused.Load() != 1 {
		t.Error("AP3b did not reuse the redirected work")
	}
	// Forward recovery happened at AP2 (the closest live ancestor).
	if ap2.Metrics().ForwardRecoveries.Load() != 1 {
		t.Error("AP2 did not forward-recover")
	}
	// AP3b's document now carries the reused updateResult.
	d3b, _ := ap3b.Store().Get("D3.xml")
	if !strings.Contains(marshal(d3b), "<updateResult") {
		t.Errorf("AP3b doc missing reused results: %s", marshal(d3b))
	}

	// Trace shape of case (b): AP6 emits a redirect span naming the dead
	// parent and the live ancestor it delivered to; AP2 mirrors it on the
	// receiving side and emits the replica retry; AP3b emits the work-reuse
	// span instead of a fresh invocation of S6.
	spans := ring.Trace(txc.ID)
	redir6 := findSpan(spans, byKind(obs.KindRedirect, "AP6", "S6"))
	if redir6 == nil {
		t.Fatal("AP6 emitted no redirect span")
	}
	if redir6.Attrs["dead"] != "AP3" || redir6.Target != "AP2" || redir6.Outcome != obs.OutcomeOK {
		t.Errorf("AP6 redirect span dead=%q target=%q outcome=%s, want AP3/AP2/ok",
			redir6.Attrs["dead"], redir6.Target, redir6.Outcome)
	}
	redir2 := findSpan(spans, byKind(obs.KindRedirect, "AP2", "S6"))
	if redir2 == nil {
		t.Fatal("AP2 emitted no receiving-side redirect span")
	}
	if redir2.Parent != redir6.ID {
		t.Errorf("AP2 redirect parent = %q, want AP6's redirect %q (wire span propagation)",
			redir2.Parent, redir6.ID)
	}
	retry := findSpan(spans, byKind(obs.KindRetry, "AP2", "S3"))
	if retry == nil {
		t.Fatal("AP2 emitted no replica-retry span")
	}
	if retry.Attrs["dead"] != "AP3" || retry.Attrs["reused"] != "true" || retry.Target != "AP3b" {
		t.Errorf("AP2 retry span dead=%q reused=%q target=%q, want AP3/true/AP3b",
			retry.Attrs["dead"], retry.Attrs["reused"], retry.Target)
	}
	if reuse := findSpan(spans, byKind(obs.KindReuse, "AP3b", "S6")); reuse == nil {
		t.Error("AP3b emitted no work-reuse span")
	}
}

func TestF2cChildDisconnectionDetectedByParentPing(t *testing.T) {
	// (c) AP3 dies while processing; AP2's keep-alive detector notices.
	// AP2 then informs AP3's descendants (AP6, preventing wasted effort)
	// and forward-recovers S3 on the replica AP3b.
	c := newCluster(t)
	ring := obs.NewRing(0)
	c.sink = ring
	f := buildFig2(t, c)
	ap2, ap3, ap6 := f.peers["AP2"], f.peers["AP3"], f.peers["AP6"]

	// S3 at AP3: local work + sync invocation of S6@AP6, then it blocks
	// forever (the peer will die mid-processing).
	dead := make(chan struct{})
	ap3.HostService(services.NewFuncService(
		services.Descriptor{Name: "S3", ResultName: "updateResult", TargetDocument: "D3.xml"},
		func(cctx context.Context, params map[string]string) ([]string, error) {
			env, _ := EnvFrom(cctx)
			if _, err := env.Peer.Call(bg, env.Txn, "AP3", "S3sub", nil); err != nil {
				return nil, err
			}
			if _, err := env.Peer.Call(bg, env.Txn, "AP6", "S6", nil); err != nil {
				return nil, err
			}
			<-dead // never returns: AP3 has crashed
			return nil, nil
		}))

	ap3b := c.add("AP3b", Options{})
	hostEntryService(t, ap3b, "S3", "D3b.xml")
	for _, p := range f.peers {
		p.Replicas().AddService("S3", "AP3")
		p.Replicas().AddService("S3", "AP3b")
	}

	txc, ctx2 := f.startTxn(t)
	// Invoke S3 asynchronously so AP2 is not blocked on the dead peer.
	if err := ap2.CallAsync(bg, ctx2, "AP3", "S3", nil); err != nil {
		t.Fatal(err)
	}
	// Wait until AP6's entry exists (S6 completed under AP3).
	waitFor(t, func() bool { return entryCount(t, ap6, "D6.xml") == 1 })

	// AP3 dies. AP2's pinger detects it.
	c.net.Disconnect("AP3")
	recovered := make(chan struct{}, 1)
	ap2.OnResult(func(txn string, resp *InvokeResponse) {
		if resp.Service == "S3" {
			recovered <- struct{}{}
		}
	})
	pinger := p2p.NewPinger(ap2.Transport(), 5*time.Millisecond, 1, func(id p2p.PeerID) {
		ap2.OnPeerDown(id)
	})
	pinger.Watch("AP3")
	pinger.ProbeNow(context.Background())

	select {
	case <-recovered:
	case <-time.After(5 * time.Second):
		t.Fatal("AP2 never recovered after ping detection")
	}
	// AP6 was informed and compensated its (doomed) work.
	waitFor(t, func() bool { return entryCount(t, ap6, "D6.xml") == 0 })
	if ap6.Metrics().NodesLost.Load() == 0 {
		t.Error("AP6 did not account lost work")
	}
	// AP3b carries the redone work; commit finalizes.
	if err := f.peers["AP1"].Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	if entryCount(t, ap3b, "D3b.xml") != 1 {
		t.Error("replica has no redone work")
	}
	if ap2.Metrics().ForwardRecoveries.Load() != 1 {
		t.Error("AP2 did not forward-recover")
	}

	// Trace shape of case (c): AP2's forward recovery is a retry span naming
	// the dead child and the replica it succeeded on (no salvage here — the
	// replica redoes the work), and AP6's doomed work shows up as a
	// compensate span.
	spans := ring.Trace(txc.ID)
	retry := findSpan(spans, byKind(obs.KindRetry, "AP2", "S3"))
	if retry == nil {
		t.Fatal("AP2 emitted no replica-retry span")
	}
	if retry.Attrs["dead"] != "AP3" || retry.Target != "AP3b" || retry.Outcome != obs.OutcomeOK {
		t.Errorf("AP2 retry span dead=%q target=%q outcome=%s, want AP3/AP3b/ok",
			retry.Attrs["dead"], retry.Target, retry.Outcome)
	}
	if retry.Attrs["reused"] == "true" {
		t.Error("case (c) has no salvaged results; retry span must not claim reuse")
	}
	if comp := findSpan(spans, byKind(obs.KindCompensate, "AP6", "")); comp == nil {
		t.Error("AP6 emitted no compensate span for its doomed work")
	}
	close(dead)
}

func TestF2dSiblingDisconnectionDetectedByStreamSilence(t *testing.T) {
	// (d) AP3 streams continuous data directly to its sibling AP4; when
	// the stream goes silent, AP4 notifies AP3's parent (AP2) and children
	// (AP6) via the active peer list.
	c := newCluster(t)
	f := buildFig2(t, c)
	ap2, ap3, ap4, ap6 := f.peers["AP2"], f.peers["AP3"], f.peers["AP4"], f.peers["AP6"]

	// S3 at AP3: does local work and invokes S6@AP6 (so AP6 is in the
	// chain as AP3's child), then returns; streaming happens separately.
	ap3.HostService(services.NewFuncService(
		services.Descriptor{Name: "S3", ResultName: "updateResult", TargetDocument: "D3.xml"},
		func(cctx context.Context, params map[string]string) ([]string, error) {
			env, _ := EnvFrom(cctx)
			if _, err := env.Peer.Call(bg, env.Txn, "AP3", "S3sub", nil); err != nil {
				return nil, err
			}
			return env.Peer.Call(bg, env.Txn, "AP6", "S6", nil)
		}))
	txc, ctx2 := f.startTxn(t)
	if _, err := ap2.Call(bg, ctx2, "AP3", "S3", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ap2.Call(bg, ctx2, "AP4", "S4sub", nil); err != nil {
		t.Fatal(err)
	}

	// AP4 subscribes to AP3's stream with a silence watcher.
	var batches atomic.Int32
	silence := make(chan struct{}, 1)
	watcher := services.NewStreamWatcher(60*time.Millisecond, func() { silence <- struct{}{} })
	ap4.OnStream(func(b *StreamBatch) {
		batches.Add(1)
		watcher.Observe()
	})
	watcher.Start()

	// AP3 streams three batches, then disconnects.
	for seq := 0; seq < 3; seq++ {
		if err := ap3.StreamTo("AP4", &StreamBatch{Txn: txc.ID, Service: "S3", Seq: seq,
			Fragments: []string{fmt.Sprintf("<tick n=%q/>", fmt.Sprint(seq))}}); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Disconnect("AP3")

	select {
	case <-silence:
	case <-time.After(5 * time.Second):
		t.Fatal("stream silence never detected")
	}
	if batches.Load() != 3 {
		t.Fatalf("batches = %d", batches.Load())
	}

	// AP4 uses the chain to notify AP3's parent and children.
	ctx4, ok := ap4.Manager().Get(txc.ID)
	if !ok {
		t.Fatal("AP4 has no context")
	}
	ap4.NotifySiblingDown(txc.ID, "AP3")
	_ = ctx4

	// AP6 (child of the dead peer) stopped and compensated; AP2 (parent)
	// ran recovery — with no S3 replica registered, the nested protocol
	// aborts the transaction.
	waitFor(t, func() bool { return entryCount(t, ap6, "D6.xml") == 0 })
	waitFor(t, func() bool { return entryCount(t, ap2, "D2.xml") == 0 })
	if ap2.Metrics().BackwardRecoveries.Load() == 0 {
		t.Error("AP2 should have backward-recovered (no replica)")
	}
	// AP4's own work was compensated by the abort cascade.
	waitFor(t, func() bool { return entryCount(t, ap4, "D4.xml") == 0 })
}

func TestTraditionalBaselineLosesRedirectedWork(t *testing.T) {
	// With chaining disabled, AP6 cannot redirect past its dead parent:
	// the work is lost (NodesLost accounting) and nobody is informed.
	c := newCluster(t)
	ap2 := c.add("AP2", Options{DisableChaining: true})
	ap3 := c.add("AP3", Options{DisableChaining: true})
	ap6 := c.add("AP6", Options{DisableChaining: true})
	_ = ap2
	hostEntryService(t, ap6, "S6", "D6.xml")

	release := make(chan struct{})
	gate(t, ap6, "S6", release)
	ap3.HostService(services.NewFuncService(
		services.Descriptor{Name: "S3", ResultName: "updateResult"},
		func(cctx context.Context, params map[string]string) ([]string, error) {
			env, _ := EnvFrom(cctx)
			if err := env.Peer.CallAsync(bg, env.Txn, "AP6", "S6", nil); err != nil {
				return nil, err
			}
			return []string{`<updateResult/>`}, nil
		}))

	txc := ap2.Begin()
	if _, err := ap2.Call(bg, txc, "AP3", "S3", nil); err != nil {
		t.Fatal(err)
	}
	c.net.Disconnect("AP3")
	close(release)

	waitFor(t, func() bool { return ap6.Metrics().NodesLost.Load() > 0 })
	if ap6.Metrics().Redirects.Load() != 0 {
		t.Fatal("baseline should not redirect")
	}
	if ap2.Metrics().Redirects.Load() != 0 {
		t.Fatal("AP2 received a redirect in baseline mode")
	}
}

func TestSpheresOfAtomicity(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{Super: true})
	ap2 := c.add("AP2", Options{Super: true})
	ap3 := c.add("AP3", Options{}) // regular peer
	hostEntryService(t, ap2, "S2", "D2.xml")
	hostEntryService(t, ap3, "S3", "D3.xml")

	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP2", "S2", nil); err != nil {
		t.Fatal(err)
	}
	if !ap1.SpheresOfAtomicityHolds(txc) {
		t.Fatal("all-super participant set should guarantee atomicity")
	}
	if _, err := ap1.Call(bg, txc, "AP3", "S3", nil); err != nil {
		t.Fatal(err)
	}
	if ap1.SpheresOfAtomicityHolds(txc) {
		t.Fatal("regular participant must break the sphere")
	}
}

// waitFor polls cond until true or fails the test.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}

// marshal serializes a document's root for diagnostics.
func marshal(d *xmldom.Document) string {
	if d == nil || d.Root() == nil {
		return ""
	}
	return xmldom.MarshalString(d.Root())
}
