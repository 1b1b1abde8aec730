package axml

import (
	"fmt"
	"slices"
	"testing"

	"axmltx/internal/query"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// FuzzParseAction guards the action wire-format parser: no panics, and
// every accepted action re-serializes to a parseable equivalent.
func FuzzParseAction(f *testing.F) {
	for _, seed := range []string{
		`<action type="delete"><location>Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;</location></action>`,
		`<action type="insert"><data><citizenship>Swiss</citizenship></data><location>Select p from p in A//b;</location></action>`,
		`<action type="insert" doc="D.xml" parentID="7" pos="2" restoreID="9"><data><x/></data></action>`,
		`<action type="query"><location>Select p from p in D</location></action>`,
		`<action type="replace" doc="d" targetID="5"><data><x/></data></action>`,
		`<action/>`,
		`<action type="delete" targetID="-1"/>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ParseAction(src)
		if err != nil {
			return
		}
		wire := a.XML()
		b, err := ParseAction(wire)
		if err != nil {
			t.Fatalf("re-parse of XML() failed: %q -> %q: %v", src, wire, err)
		}
		if b.Type != a.Type || b.TargetID != a.TargetID || b.ParentID != a.ParentID {
			t.Fatalf("wire round trip drifted: %+v vs %+v", a, b)
		}
	})
}

// callFragments are the subtrees FuzzServiceCallCount moves in and out of
// its document: calls at the top, inside results, inside parameters and
// fault handlers, and none at all.
var callFragments = []string{
	`<x><y/></x>`,
	`<axml:sc methodName="a" mode="replace"/>`,
	`<r><axml:sc methodName="b"><axml:params><axml:param name="p"><axml:value>` +
		`<axml:sc methodName="c"/></axml:value></axml:param></axml:params><res/></axml:sc></r>`,
	`<axml:sc methodName="d"><axml:catch faultName="F"><axml:sc methodName="h"/></axml:catch>` +
		`<axml:catchAll><axml:retry><axml:sc methodName="alt"/></axml:retry></axml:catchAll><axml:sc methodName="e"/></axml:sc>`,
	`<axml:params><axml:sc methodName="hidden"/></axml:params>`,
	`<p><q><axml:sc methodName="deep"/></q><axml:sc methodName="sib"/></p>`,
}

// FuzzServiceCallCount drives a document through random inserts, deletes,
// replaces, compensations (undoing the latest step), clones and restored
// fragments, and after each step checks the document's service-call count
// and TopLevelServiceCalls against a walk of the attached tree.
func FuzzServiceCallCount(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 3, 1, 1, 1, 0, 3, 0, 0})
	f.Add([]byte{2, 1, 2, 4, 0, 0, 5, 3, 1, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 5, 1, 0, 2, 2, 1, 4, 0, 6, 0, 0, 3, 0, 0, 2, 3, 3})
	f.Fuzz(func(t *testing.T, steps []byte) {
		doc := xmldom.MustParse("D.xml", `<D><a/><axml:sc methodName="s0"><axml:params>`+
			`<axml:sc methodName="p0"/></axml:params><res/></axml:sc></D>`)
		// undo holds, per step not yet compensated, how to reverse it.
		var undo []func() error
		restoredID := xmldom.NodeID(1 << 20)
		for i := 0; i+2 < len(steps) && i < 3*64; i += 3 {
			op, a, b := steps[i]%7, int(steps[i+1]), int(steps[i+2])
			elems := attachedElements(doc)
			switch op {
			case 0, 5: // insert a fresh (0) or an ID-carrying restored (5) fragment
				var n *xmldom.Node
				var err error
				if op == 0 {
					n, err = xmldom.ParseFragment(doc, callFragments[a%len(callFragments)])
				} else {
					restoredID += 1 << 10 // room for the fragment's fresh nodes
					src := fmt.Sprintf(`<f _id="%d">%s</f>`, restoredID, callFragments[a%len(callFragments)])
					n, err = xmldom.RestoreFragment(doc, src, "_id")
				}
				if err != nil {
					t.Fatal(err)
				}
				parent := elems[b%len(elems)]
				if err := doc.InsertChild(parent, n, b%(parent.ChildCount()+1)); err != nil {
					t.Fatal(err)
				}
				undo = append(undo, func() error { _, _, err := doc.Detach(n); return err })
			case 1, 2: // delete, or replace (delete + insert in place)
				if len(elems) < 2 {
					continue
				}
				old := elems[1+a%(len(elems)-1)]
				parent, pos, err := doc.Detach(old)
				if err != nil {
					t.Fatal(err)
				}
				var fresh *xmldom.Node
				if op == 2 {
					if fresh, err = xmldom.ParseFragment(doc, callFragments[b%len(callFragments)]); err != nil {
						t.Fatal(err)
					}
					if err := doc.InsertChild(parent, fresh, pos); err != nil {
						t.Fatal(err)
					}
				}
				undo = append(undo, func() error {
					if fresh != nil {
						if _, _, err := doc.Detach(fresh); err != nil {
							return err
						}
					}
					return doc.InsertChild(parent, old, pos)
				})
			case 3: // compensate the latest step
				if len(undo) == 0 {
					continue
				}
				if err := undo[len(undo)-1](); err != nil {
					t.Fatal(err)
				}
				undo = undo[:len(undo)-1]
			case 4: // continue on a clone; deleted subtrees are not copied
				doc, undo = doc.Clone(), nil
			case 6: // detach the root and install it again
				root := doc.Root()
				if _, _, err := doc.Detach(root); err != nil {
					t.Fatal(err)
				}
				checkCallCount(t, doc)
				if err := doc.SetRoot(root); err != nil {
					t.Fatal(err)
				}
			}
			checkCallCount(t, doc)
		}
	})
}

func attachedElements(doc *xmldom.Document) []*xmldom.Node {
	var out []*xmldom.Node
	doc.Root().Walk(func(n *xmldom.Node) bool {
		if n.Kind() == xmldom.ElementNode {
			out = append(out, n)
		}
		return true
	})
	return out
}

// checkCallCount compares the document's count and TopLevelServiceCalls
// with a walk of the attached tree.
func checkCallCount(t *testing.T, doc *xmldom.Document) {
	t.Helper()
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	var all, top []*xmldom.Node
	if doc.Root() != nil {
		doc.Root().Walk(func(n *xmldom.Node) bool {
			if n.Kind() != xmldom.ElementNode || n.Name() != ElemSC {
				return true
			}
			all = append(all, n)
			for p := n.Parent(); p != nil; p = p.Parent() {
				switch p.Name() {
				case ElemParams, ElemCatch, ElemCatchAll, ElemRetry:
					return true
				}
			}
			top = append(top, n)
			return true
		})
	}
	if doc.ServiceCallCount() != len(all) {
		t.Fatalf("ServiceCallCount = %d, the tree holds %d calls", doc.ServiceCallCount(), len(all))
	}
	got := TopLevelServiceCalls(doc)
	if len(got) != len(top) {
		t.Fatalf("TopLevelServiceCalls found %d calls, the walk %d", len(got), len(top))
	}
	for i := range got {
		if got[i].Node() != top[i] {
			t.Fatalf("top-level call %d is %s, the walk's is node %d", i, got[i].Describe(), top[i].ID())
		}
	}
}

// indexFragments are the subtrees FuzzIndexedEvalMatchesWalk moves in and
// out of its document: bindings at the top and nested in one another, key
// elements that re-key the binding they join, a hidden subtree holding a
// binding, and a service call, which drops every index while it is there.
var indexFragments = []string{
	`<player rank="1"><name><lastname>L1</lastname></name><citizenship>C1</citizenship><points>1</points></player>`,
	`<player rank="2"><name><lastname>L2</lastname><lastname>L1</lastname></name><citizenship>C2</citizenship></player>`,
	`<team><player rank="3"><name><lastname>L3</lastname></name><citizenship>C1</citizenship>` +
		`<player rank="1"><name>L<!-- c -->1</name><points>2</points></player></player></team>`,
	`<lastname>L2</lastname>`,
	`<citizenship>C2</citizenship>`,
	`<name><firstname>F1</firstname><lastname>L3</lastname></name>`,
	`<axml:params><player rank="2"><name><lastname>L2</lastname></name><citizenship>C2</citizenship></player></axml:params>`,
	`<axml:sc methodName="getPoints"/>`,
}

// indexQueries are the query shapes FuzzIndexedEvalMatchesWalk asks, each
// with a literal from 1 to 3: an `=` alone, an `=` beside another
// conjunct, an attribute key, a child-step source, a key through text
// split by a comment, and selects of the binding itself.
var indexQueries = []string{
	`Select p/points from p in D//player where p/name/lastname = L%d`,
	`Select p/name/lastname, p/points from p in D//player where p/citizenship = C%d`,
	`Select p from p in D/player where p/@rank = %d`,
	`Select p/points from p in D//team//player where p/citizenship = C1 and p//lastname = L%d`,
	`Select p, p/points from p in D//player where p/name = L%d`,
}

// FuzzIndexedEvalMatchesWalk drives a call-free document through random
// inserts, deletes, replaces, compensations, clones, restored fragments,
// text and attribute edits, root reinstalls and service calls coming and
// going. After each step it asks every query shape twice: as written, which
// takes the document's equality index when it can, and with its where
// clause w as `w or w`, which means the same and always takes the walk.
// Bindings, per-binding rows, items, their order and errors must agree,
// and Validate checks every live index against a fresh build.
func FuzzIndexedEvalMatchesWalk(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 1})
	f.Add([]byte{0, 2, 0, 0, 3, 4, 2, 4, 1, 3, 0, 0, 0, 7, 0, 1, 3, 0, 3, 0, 0, 5, 1, 2})
	f.Add([]byte{0, 1, 0, 6, 2, 1, 7, 5, 1, 4, 0, 0, 0, 6, 3, 8, 0, 0, 2, 5, 6, 3, 0, 0})
	ev := NewStore(wal.NewMemory()).Evaluator()
	f.Fuzz(func(t *testing.T, steps []byte) {
		doc := xmldom.MustParse("D.xml", `<D>`+indexFragments[0]+indexFragments[1]+indexFragments[2]+`</D>`)
		var undo []func() error
		restoredID := xmldom.NodeID(1 << 20)
		for i := 0; i+2 < len(steps) && i < 3*64; i += 3 {
			op, a, b := steps[i]%9, int(steps[i+1]), int(steps[i+2])
			elems := attachedElements(doc)
			switch op {
			case 0, 5: // insert a fresh (0) or an ID-carrying restored (5) fragment
				var n *xmldom.Node
				var err error
				if op == 0 {
					n, err = xmldom.ParseFragment(doc, indexFragments[a%len(indexFragments)])
				} else {
					restoredID += 1 << 10
					src := fmt.Sprintf(`<player _id="%d" rank="%d">%s</player>`, restoredID, a%3+1, indexFragments[a%len(indexFragments)])
					n, err = xmldom.RestoreFragment(doc, src, "_id")
				}
				if err != nil {
					t.Fatal(err)
				}
				parent := elems[b%len(elems)]
				if err := doc.InsertChild(parent, n, b%(parent.ChildCount()+1)); err != nil {
					t.Fatal(err)
				}
				undo = append(undo, func() error { _, _, err := doc.Detach(n); return err })
			case 1, 2: // delete, or replace (delete + insert in place)
				if len(elems) < 2 {
					continue
				}
				old := elems[1+a%(len(elems)-1)]
				parent, pos, err := doc.Detach(old)
				if err != nil {
					t.Fatal(err)
				}
				var fresh *xmldom.Node
				if op == 2 {
					if fresh, err = xmldom.ParseFragment(doc, indexFragments[b%len(indexFragments)]); err != nil {
						t.Fatal(err)
					}
					if err := doc.InsertChild(parent, fresh, pos); err != nil {
						t.Fatal(err)
					}
				}
				undo = append(undo, func() error {
					if fresh != nil {
						if _, _, err := doc.Detach(fresh); err != nil {
							return err
						}
					}
					return doc.InsertChild(parent, old, pos)
				})
			case 3: // compensate the latest step
				if len(undo) == 0 {
					continue
				}
				if err := undo[len(undo)-1](); err != nil {
					t.Fatal(err)
				}
				undo = undo[:len(undo)-1]
			case 4: // continue on a clone; deleted subtrees are not copied
				doc, undo = doc.Clone(), nil
			case 6: // edit a text in place
				var texts []*xmldom.Node
				doc.Root().Walk(func(n *xmldom.Node) bool {
					if n.Kind() == xmldom.TextNode {
						texts = append(texts, n)
					}
					return true
				})
				if len(texts) > 0 {
					texts[a%len(texts)].SetText(fmt.Sprintf("L%d", b%3+1))
				}
			case 7: // edit an attribute in place
				elems[a%len(elems)].SetAttr("rank", fmt.Sprint(b%3+1))
			case 8: // detach the root and install it again
				root := doc.Root()
				if _, _, err := doc.Detach(root); err != nil {
					t.Fatal(err)
				}
				if err := doc.SetRoot(root); err != nil {
					t.Fatal(err)
				}
			}
			for _, shape := range indexQueries {
				checkIndexedEvalMatchesWalk(t, ev, doc, fmt.Sprintf(shape, b%3+1))
			}
			if err := doc.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkIndexedEvalMatchesWalk evaluates src on doc as written and with its
// where clause w as `w or w`, and fails t unless the answers are the same
// nodes in the same order.
func checkIndexedEvalMatchesWalk(t *testing.T, ev *query.Evaluator, doc *xmldom.Document, src string) {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	walk := *q
	walk.Where = &query.Or{L: q.Where, R: q.Where}
	got, err := ev.Eval(doc, q)
	want, wantErr := ev.Eval(doc, &walk)
	where := func() string { return fmt.Sprintf("%s on %s", src, xmldom.MarshalString(doc.Root())) }
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, the walk's %v", where(), err, wantErr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(got.Bindings, want.Bindings) {
		t.Fatalf("%s: bindings %v, the walk's %v", where(), got.Bindings, want.Bindings)
	}
	if len(got.PerBinding) != len(want.PerBinding) || (got.PerBinding == nil) != (want.PerBinding == nil) {
		t.Fatalf("%s: %d rows, the walk's %d", where(), len(got.PerBinding), len(want.PerBinding))
	}
	for i := range got.PerBinding {
		if !slices.Equal(got.PerBinding[i], want.PerBinding[i]) {
			t.Fatalf("%s: row %d %v, the walk's %v", where(), i, got.PerBinding[i], want.PerBinding[i])
		}
	}
	if !slices.Equal(got.Items, want.Items) {
		t.Fatalf("%s: items %v, the walk's %v", where(), got.Items, want.Items)
	}
}
