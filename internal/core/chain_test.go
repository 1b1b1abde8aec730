package core

import (
	"reflect"
	"testing"

	"axmltx/internal/obs"
	"axmltx/internal/p2p"
)

// fig2Chain builds the paper's example list
// [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]].
func fig2Chain() *Chain {
	c := NewChain("AP1", true)
	c = c.Add("AP1", "AP2", "S2", false)
	c = c.Add("AP2", "AP3", "S3", false)
	c = c.Add("AP3", "AP6", "S6", false)
	c = c.Add("AP2", "AP4", "S4", false)
	c = c.Add("AP4", "AP5", "S5", false)
	return c
}

func TestChainStringMatchesPaperNotation(t *testing.T) {
	got := fig2Chain().String()
	want := "[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]"
	if got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
}

// TestSetSpanChainRendersOnlyWhenRecording: with tracing off the span is
// nil and recording the chain allocates nothing; with it on, the span
// carries the paper's notation.
func TestSetSpanChainRendersOnlyWhenRecording(t *testing.T) {
	ch := fig2Chain()
	if allocs := testing.AllocsPerRun(100, func() { setSpanChain(nil, ch) }); allocs != 0 {
		t.Fatalf("nil span: %.0f allocs, want 0", allocs)
	}
	ring := obs.NewRing(4)
	sp := obs.NewTracer("AP1", ring).Start("T1@AP1", "", obs.KindRedirect, "S6")
	setSpanChain(sp, ch)
	sp.End("", nil)
	if spans := ring.Spans(); len(spans) != 1 || spans[0].Chain != ch.String() {
		t.Fatalf("recorded spans = %+v, want one with chain %s", spans, ch)
	}
}

func TestChainRelationships(t *testing.T) {
	c := fig2Chain()
	if c.ParentOf("AP6") != "AP3" || c.ParentOf("AP3") != "AP2" || c.ParentOf("AP1") != "" {
		t.Fatal("ParentOf")
	}
	if got := c.ChildrenOf("AP2"); !reflect.DeepEqual(got, []p2p.PeerID{"AP3", "AP4"}) {
		t.Fatalf("ChildrenOf(AP2) = %v", got)
	}
	if got := c.SiblingsOf("AP3"); !reflect.DeepEqual(got, []p2p.PeerID{"AP4"}) {
		t.Fatalf("SiblingsOf(AP3) = %v", got)
	}
	if got := c.SiblingsOf("AP1"); got != nil {
		t.Fatalf("SiblingsOf(origin) = %v", got)
	}
	if got := c.DescendantsOf("AP2"); !reflect.DeepEqual(got, []p2p.PeerID{"AP3", "AP6", "AP4", "AP5"}) {
		t.Fatalf("DescendantsOf(AP2) = %v", got)
	}
	if got := c.AncestorsOf("AP6"); !reflect.DeepEqual(got, []p2p.PeerID{"AP3", "AP2", "AP1"}) {
		t.Fatalf("AncestorsOf(AP6) = %v", got)
	}
	if c.Origin() != "AP1" {
		t.Fatal("Origin")
	}
	if c.ServiceAt("AP5") != "S5" || c.ServiceAt("AP1") != "" {
		t.Fatal("ServiceAt")
	}
	if !c.IsSuper("AP1") || c.IsSuper("AP2") {
		t.Fatal("IsSuper")
	}
	if len(c.Peers()) != 6 {
		t.Fatal("Peers")
	}
}

func TestChainClosestLiveAncestor(t *testing.T) {
	c := fig2Chain()
	// AP6 returning results finds AP3 dead; AP2 is next, then AP1.
	alive := func(id p2p.PeerID) bool { return id != "AP3" }
	if a, ok := c.ClosestLiveAncestor("AP6", alive); !ok || a != "AP2" {
		t.Fatalf("closest = %v, %v", a, ok)
	}
	alive2 := func(id p2p.PeerID) bool { return id != "AP3" && id != "AP2" }
	if a, ok := c.ClosestLiveAncestor("AP6", alive2); !ok || a != "AP1" {
		t.Fatalf("closest = %v, %v", a, ok)
	}
	dead := func(p2p.PeerID) bool { return false }
	if _, ok := c.ClosestLiveAncestor("AP6", dead); ok {
		t.Fatal("everyone dead but found an ancestor")
	}
	if a, ok := c.ClosestSuperAncestor("AP6"); !ok || a != "AP1" {
		t.Fatalf("super ancestor = %v, %v", a, ok)
	}
}

func TestChainAddIgnoresUnknownParentAndDuplicates(t *testing.T) {
	c := NewChain("AP1", false)
	c2 := c.Add("ghost", "AP2", "S", false)
	if len(c2.Nodes) != 1 {
		t.Fatal("unknown parent extended the chain")
	}
	c3 := c.Add("AP1", "AP2", "S", false)
	c4 := c3.Add("AP1", "AP2", "S-again", false)
	if len(c4.Nodes) != 2 {
		t.Fatal("duplicate child re-added")
	}
}

func TestChainCloneIndependent(t *testing.T) {
	c := fig2Chain()
	cp := c.Clone()
	cp.markSuper("AP2", true)
	if c.IsSuper("AP2") {
		t.Fatal("clone shares nodes")
	}
}

func TestChainSphereOfAtomicity(t *testing.T) {
	c := NewChain("AP1", true)
	c = c.Add("AP1", "AP2", "S", true)
	if !c.SphereOfAtomicity() {
		t.Fatal("all-super chain should guarantee atomicity")
	}
	c = c.Add("AP2", "AP3", "S", false)
	if c.SphereOfAtomicity() {
		t.Fatal("chain with a regular peer cannot guarantee atomicity")
	}
}

func TestChainStringSingleAndEmpty(t *testing.T) {
	if got := (&Chain{}).String(); got != "[]" {
		t.Fatalf("empty = %q", got)
	}
	c := NewChain("AP1", false)
	if got := c.String(); got != "[AP1]" {
		t.Fatalf("single = %q", got)
	}
	c = c.Add("AP1", "AP2", "S", false)
	if got := c.String(); got != "[AP1 → AP2]" {
		t.Fatalf("linear = %q", got)
	}
}

func TestChainUnknownPeerQueries(t *testing.T) {
	c := fig2Chain()
	if c.Contains("ghost") || c.ParentOf("ghost") != "" || c.ChildrenOf("ghost") != nil ||
		c.AncestorsOf("ghost") != nil || c.DescendantsOf("ghost") != nil {
		t.Fatal("unknown peer should yield empty results")
	}
	if _, ok := c.ClosestSuperAncestor("ghost"); ok {
		t.Fatal("unknown peer has a super ancestor")
	}
}
