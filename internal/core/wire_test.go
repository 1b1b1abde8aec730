package core

import (
	"reflect"
	"testing"
)

func TestWireInvokeRequestRoundTrip(t *testing.T) {
	in := &InvokeRequest{
		Txn: "T1@AP1", Origin: "AP1", Caller: "AP2", Service: "S3",
		Params: map[string]string{"name": "Roger Federer"},
		Chain:  fig2Chain(),
		Async:  true,
		Reused: map[string][]string{"S6": {"<r/>", "<r2/>"}},
	}
	var out InvokeRequest
	if err := decode(encode(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Txn != in.Txn || out.Service != in.Service || !out.Async {
		t.Fatalf("out = %+v", out)
	}
	if !reflect.DeepEqual(out.Params, in.Params) || !reflect.DeepEqual(out.Reused, in.Reused) {
		t.Fatal("maps mangled")
	}
	if out.Chain.String() != in.Chain.String() {
		t.Fatalf("chain = %s", out.Chain)
	}
}

func TestWireInvokeResponseRoundTrip(t *testing.T) {
	in := &InvokeResponse{
		Service: "S3", Fragments: []string{"<a/>", "<b/>"},
		Chain: NewChain("AP1", true), Comp: []byte{1, 2, 3}, Nodes: 7,
	}
	var out InvokeResponse
	if err := decode(encode(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Fragments, in.Fragments) || out.Nodes != 7 || len(out.Comp) != 3 {
		t.Fatalf("out = %+v", out)
	}
}

func TestWireNoticePayloads(t *testing.T) {
	dn := &DisconnectNotice{Txn: "T", Dead: "AP3", Detected: "AP6"}
	var dn2 DisconnectNotice
	if err := decode(encode(dn), &dn2); err != nil || dn2 != *dn {
		t.Fatalf("disconnect notice: %+v, %v", dn2, err)
	}
	rr := &RedirectResult{Txn: "T", Dead: "AP3", Service: "S6",
		Response: InvokeResponse{Service: "S6", Fragments: []string{"<x/>"}}}
	var rr2 RedirectResult
	if err := decode(encode(rr), &rr2); err != nil || rr2.Response.Fragments[0] != "<x/>" {
		t.Fatalf("redirect: %+v, %v", rr2, err)
	}
	sb := &StreamBatch{Txn: "T", Service: "S3", Seq: 4, Fragments: []string{"<t/>"}}
	var sb2 StreamBatch
	if err := decode(encode(sb), &sb2); err != nil || sb2.Seq != 4 {
		t.Fatalf("stream: %+v, %v", sb2, err)
	}
	cu := &ChainUpdate{Txn: "T", Chain: fig2Chain()}
	var cu2 ChainUpdate
	if err := decode(encode(cu), &cu2); err != nil || cu2.Chain.String() != cu.Chain.String() {
		t.Fatalf("chain update: %v", err)
	}
}

func TestWireDecodeGarbage(t *testing.T) {
	var out InvokeRequest
	if err := decode([]byte{0xff, 0x01}, &out); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestChainMerge(t *testing.T) {
	// AP2 knows only its own path; a descendant's chain brings the rest.
	partial := NewChain("AP1", true)
	partial = partial.Add("AP1", "AP2", "S2", false)
	full := fig2Chain()

	merged := partial.Merge(full)
	if merged.String() != full.String() {
		t.Fatalf("merged = %s, want %s", merged, full)
	}
	// Merge is idempotent and nil-safe.
	if merged.Merge(nil).String() != merged.String() {
		t.Fatal("nil merge changed the chain")
	}
	if merged.Merge(full).String() != merged.String() {
		t.Fatal("re-merge changed the chain")
	}
	// Merge propagates super flags.
	flagged := fig2Chain()
	flagged.markSuper("AP4", true)
	if !merged.Merge(flagged).IsSuper("AP4") {
		t.Fatal("super flag not merged")
	}
	// The receiver is never mutated.
	if partial.Contains("AP6") {
		t.Fatal("merge mutated receiver")
	}
}

func TestMetricsSnapshotAndAdd(t *testing.T) {
	var m Metrics
	m.TxnsBegun.Add(2)
	m.NodesUndone.Add(7)
	m.Redirects.Add(1)
	s1 := m.Snapshot()
	if s1.TxnsBegun != 2 || s1.NodesUndone != 7 || s1.Redirects != 1 {
		t.Fatalf("snapshot = %+v", s1)
	}
	var total MetricsSnapshot
	total.Add(s1)
	total.Add(s1)
	if total.TxnsBegun != 4 || total.NodesUndone != 14 {
		t.Fatalf("total = %+v", total)
	}
	// Register, Snapshot and Add share one counter list: every snapshot
	// field has exactly one counter.
	var all Metrics
	cs := all.counters(&total)
	if n := reflect.TypeOf(total).NumField(); len(cs) != n {
		t.Fatalf("%d counters for %d snapshot fields", len(cs), n)
	}
	for i, c := range cs {
		c.v.Store(int64(i + 1))
	}
	got := all.Snapshot()
	got.Add(got)
	for i, c := range all.counters(&got) {
		if *c.s != 2*int64(i+1) {
			t.Errorf("%s: snapshot plus itself = %d, want %d", c.name, *c.s, 2*(i+1))
		}
	}
}
