package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
)

func TestStrayAbortUnknownTxnHarmless(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap1.handleDecision(&p2p.Message{Kind: p2p.KindAbort, Txn: "ghost", From: "AP9"})
	if ap1.Metrics().Compensations.Load() != 0 {
		t.Fatal("compensated a transaction that never ran")
	}
}

func TestInvokeUnknownServiceIsFault(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	c.add("AP2", Options{})
	txc := ap1.Begin()
	_, err := ap1.Call(bg, txc, "AP2", "nope", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown service") {
		t.Fatalf("err = %v", err)
	}
}

func TestHandleCompensateGarbage(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	if _, err := ap1.handleDecision(&p2p.Message{Kind: p2p.KindCompensate, Payload: []byte{1, 2}}); err == nil {
		t.Fatal("garbage compensation accepted")
	}
}

func TestAbortWithUnreachableChildBestEffort(t *testing.T) {
	// Peer-dependent mode: when a participant is unreachable at abort
	// time, the abort proceeds locally (the participant's effects are
	// orphaned — exactly what E4 measures).
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	hostEntryService(t, ap2, "S2", "D2.xml")
	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP2", "S2", nil); err != nil {
		t.Fatal(err)
	}
	c.net.Disconnect("AP2")
	if err := ap1.Abort(bg, txc); err != nil {
		t.Fatal(err)
	}
	if txc.Status() != StatusAborted {
		t.Fatal("abort did not complete locally")
	}
	// AP2 keeps its (orphaned) entry: the known peer-dependent weakness.
	if entryCount(t, ap2, "D2.xml") != 1 {
		t.Fatal("unreachable peer was somehow compensated")
	}
}

func TestRelativeDisconnectNoticeDelegatesToParent(t *testing.T) {
	// The paper's future-work direction ("uncles, cousins"): any relative
	// holding the chain can report a death; a non-parent delegates to the
	// dead peer's parent, which runs the recovery.
	c := newCluster(t)
	f := buildFig1(t, c, "")
	txc := f.origin.Begin()
	if _, err := f.origin.Exec(bg, txc, f.q); err != nil {
		t.Fatal(err)
	}
	// AP6 dies after the run; its uncle-ish relative AP4 (a leaf in the
	// other branch) is notified and must delegate to AP5 (the parent).
	c.net.Disconnect("AP6")
	ap4 := f.peers["AP4"]
	notice := encode(&DisconnectNotice{Txn: txc.ID, Dead: "AP6", Detected: "AP4"})
	if err := ap4.Transport().Send(context.Background(), "AP4",
		&p2p.Message{Kind: p2p.KindDisconnect, Txn: txc.ID, Payload: notice}); err != nil {
		t.Fatal(err)
	}
	// AP5 (parent of AP6) received the delegated notice and, without a
	// replica of S6, aborted by the nested protocol — cascading to the
	// whole transaction.
	waitFor(t, func() bool {
		ctx5, ok := f.peers["AP5"].Manager().Get(txc.ID)
		return ok && ctx5.Status() == StatusAborted
	})
}

func TestReusedResultsConsumedInsteadOfInvocation(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	c.add("AP2", Options{}) // hosts nothing; would fail if invoked
	if err := ap1.HostDocument("D.xml",
		`<D><axml:sc mode="replace" methodName="ghost" serviceURL="AP2"/></D>`); err != nil {
		t.Fatal(err)
	}
	txc := ap1.Begin()
	txc.storeReused(map[string][]string{"ghost": {`<val>saved</val>`}})
	q, _ := axml.ParseQuery(`Select d/val from d in D`)
	res, err := ap1.Exec(bg, txc, axml.NewQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(got) != 1 || got[0] != "saved" {
		t.Fatalf("result = %v", got)
	}
	if ap1.Metrics().WorkReused.Load() != 1 {
		t.Fatal("reuse not counted")
	}
}

func TestAsyncLocalInvocationExecutesSynchronously(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	hostEntryService(t, ap1, "S1", "D1.xml")
	txc := ap1.Begin()
	if err := ap1.CallAsync(bg, txc, "AP1", "S1", nil); err != nil {
		t.Fatal(err)
	}
	if entryCount(t, ap1, "D1.xml") != 1 {
		t.Fatal("local async did not execute")
	}
}

func TestHandleUnknownMessageKind(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	c.add("AP2", Options{})
	_, err := ap1.Transport().Request(context.Background(), "AP2",
		&p2p.Message{Kind: "wat"})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestFaultNameOfClassification(t *testing.T) {
	if faultNameOf(p2p.ErrUnreachable) != FaultDisconnected {
		t.Fatal("unreachable should classify as disconnected")
	}
	if faultNameOf(&services.Fault{Name: "X"}) != "X" {
		t.Fatal("named fault lost")
	}
	if faultNameOf(errors.New("anon")) != "" {
		t.Fatal("anonymous error should have no name")
	}
}

func TestInvocationErrorMessageNotDoubled(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	ap2 := c.add("AP2", Options{})
	ap2.HostService(services.NewFuncService(services.Descriptor{Name: "f"},
		func(ctx context.Context, params map[string]string) ([]string, error) {
			return nil, &services.Fault{Name: "boom", Msg: "root cause"}
		}))
	txc := ap1.Begin()
	_, err := ap1.Call(bg, txc, "AP2", "f", nil)
	if err == nil {
		t.Fatal("no error")
	}
	if strings.Count(err.Error(), "boom") != 1 {
		t.Fatalf("fault name duplicated: %v", err)
	}
	if !strings.Contains(err.Error(), "root cause") {
		t.Fatalf("root cause lost: %v", err)
	}
}

func TestCommitNotifiesMultiLevelParticipants(t *testing.T) {
	c := newCluster(t)
	f := buildFig1(t, c, "")
	txc := f.origin.Begin()
	if _, err := f.origin.Exec(bg, txc, f.q); err != nil {
		t.Fatal(err)
	}
	if err := f.origin.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	// Commit cascaded through AP3 and AP5 to the leaves: their contexts
	// are gone and their effects permanent.
	for _, id := range []p2p.PeerID{"AP2", "AP3", "AP4", "AP5", "AP6"} {
		if _, ok := f.peers[id].Manager().Get(txc.ID); ok {
			t.Errorf("%s still holds a context after commit", id)
		}
	}
	// A very late abort at a leaf changes nothing.
	f.peers["AP6"].handleDecision(&p2p.Message{Kind: p2p.KindAbort, Txn: txc.ID, From: "AP5"})
	if n := entryCount(t, f.peers["AP6"], "D6.xml"); n != 1 {
		t.Fatalf("late abort destroyed committed work: entries=%d", n)
	}
}
