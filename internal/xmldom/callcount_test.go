package xmldom

import (
	"strings"
	"testing"
)

// TestServiceCallCountFollowsMutations moves subtrees with service calls in
// and out of the tree through every mutation that can change the count.
func TestServiceCallCountFollowsMutations(t *testing.T) {
	doc := MustParse("D.xml", `<D><a><axml:sc methodName="x"><axml:params><axml:param name="p">`+
		`<axml:value><axml:sc methodName="y"/></axml:value></axml:param></axml:params></axml:sc></a><b/></D>`)
	check := func(d *Document, want int) {
		t.Helper()
		if got := d.ServiceCallCount(); got != want {
			t.Fatalf("ServiceCallCount = %d, want %d", got, want)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	check(doc, 2) // the parser counts, nested calls included

	a := doc.Root().FirstElement("a")
	parent, pos, err := doc.Detach(a)
	if err != nil {
		t.Fatal(err)
	}
	check(doc, 0)
	// Growing a detached subtree changes nothing until it is attached.
	if err := doc.AppendChild(a, doc.CreateElement(ServiceCallElement)); err != nil {
		t.Fatal(err)
	}
	check(doc, 0)
	if err := doc.InsertChild(parent, a, pos); err != nil {
		t.Fatal(err)
	}
	check(doc, 3)

	frag, err := ParseFragment(doc, `<r><axml:sc methodName="z"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	check(doc, 3)
	if err := doc.AppendChild(doc.Root().FirstElement("b"), frag); err != nil {
		t.Fatal(err)
	}
	check(doc, 4)
	check(doc.Clone(), 4)
	if err := doc.Remove(frag); err != nil {
		t.Fatal(err)
	}
	check(doc, 3)

	root := doc.Root()
	if _, _, err := doc.Detach(root); err != nil {
		t.Fatal(err)
	}
	check(doc, 0)
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	check(doc, 3)

	restored, err := RestoreString("D.xml", `<D _id="5"><axml:sc _id="9"/></D>`, "_id")
	if err != nil {
		t.Fatal(err)
	}
	check(restored, 1)
	check(NewDocument("E.xml"), 0)
}

// TestInsertChildRefusesTheRoot keeps the root from being moved under one
// of its own detached subtrees, which would leave it both root and child.
func TestInsertChildRefusesTheRoot(t *testing.T) {
	doc := MustParse("D.xml", `<D/>`)
	el := doc.CreateElement("x")
	if err := doc.AppendChild(el, doc.Root()); err != ErrAttached {
		t.Fatalf("AppendChild(detached, root) = %v, want ErrAttached", err)
	}
}

func TestValidateCatchesServiceCallCountDrift(t *testing.T) {
	doc := MustParse("D.xml", `<D><axml:sc/></D>`)
	doc.calls++
	if err := doc.Validate(); err == nil || !strings.Contains(err.Error(), "service-call count") {
		t.Fatalf("Validate = %v, want a service-call count error", err)
	}
}

// TestForgetDropsOnlyDetachedSubtrees checks the index release for
// committed deletions.
func TestForgetDropsOnlyDetachedSubtrees(t *testing.T) {
	doc := MustParse("D.xml", `<D><a><b/></a><c/></D>`)
	a, c := doc.Root().FirstElement("a"), doc.Root().FirstElement("c")
	if doc.Forget(c) || doc.Forget(doc.Root()) {
		t.Fatal("Forget dropped an attached node")
	}
	if _, _, err := doc.Detach(a); err != nil {
		t.Fatal(err)
	}
	if doc.IndexSize() != 4 {
		t.Fatalf("IndexSize = %d before Forget, want 4", doc.IndexSize())
	}
	if !doc.Forget(a) {
		t.Fatal("Forget refused a detached subtree")
	}
	if doc.IndexSize() != doc.NodeCount() || doc.ByID(a.ID()) != nil {
		t.Fatalf("IndexSize = %d, NodeCount = %d after Forget", doc.IndexSize(), doc.NodeCount())
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}
