package axml

import (
	"fmt"
	"testing"

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
