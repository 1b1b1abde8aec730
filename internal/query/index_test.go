package query

import (
	"testing"

	"axmltx/internal/xmldom"
)

const (
	oneRowQuery = `Select p/points from p in ATP//player where p/name/lastname = L7`
	readQuery   = `Select p/name/lastname, p/points from p in ATP//player where p/citizenship = C7`
)

// TestEqualityIndexVisitsOnlyCandidates: the first `where key = literal`
// query on a call-free document walks it once to build the index; every
// later one visits only the bindings that carry the literal.
func TestEqualityIndexVisitsOnlyCandidates(t *testing.T) {
	ev := axmlEvaluator()
	doc := playersDoc(5000)
	elements := 0
	doc.Root().Walk(func(n *xmldom.Node) bool {
		if n.Kind() == xmldom.ElementNode {
			elements++
		}
		return true
	})
	for _, c := range []struct {
		src  string
		rows int
	}{{readQuery, 100}, {oneRowQuery, 1}} {
		first := mustEval(t, ev, doc, c.src)
		if first.Visited < elements-1 || len(first.Bindings) != c.rows {
			t.Fatalf("%s: first evaluation visited %d elements for %d rows, want the document's %d below the root and %d rows",
				c.src, first.Visited, len(first.Bindings), elements-1, c.rows)
		}
		again := mustEval(t, ev, doc, c.src)
		if again.Visited > c.rows || len(again.Bindings) != c.rows {
			t.Fatalf("%s: indexed evaluation visited %d elements for %d rows, want at most %d", c.src, again.Visited, len(again.Bindings), c.rows)
		}
	}
	if n := len(doc.Indexes()); n != 2 {
		t.Fatalf("document holds %d indexes after two keys were asked for, want 2", n)
	}
}

// TestEvalIndexedAllocsNoMoreThanWalk pins the indexed query's allocations
// to at most the walk's for the same query, and the walk's to the bounds
// TestEvalAllocsIndependentOfNonMatches set before queries like its own
// were indexed: the walk's document differs only by an empty service call
// after the players, which keeps it from being indexed and changes no
// answer.
func TestEvalIndexedAllocsNoMoreThanWalk(t *testing.T) {
	ev := axmlEvaluator()
	indexed, walked := playersDoc(5000), playersDoc(5000)
	if err := walked.AppendChild(walked.Root(), walked.CreateElement(xmldom.ServiceCallElement)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src       string
		rows      int
		walkBound float64
	}{{oneRowQuery, 1, 64}, {readQuery, 100, 25 * 100}} {
		q := MustParse(c.src)
		allocs := func(doc *xmldom.Document) float64 {
			return testing.AllocsPerRun(20, func() {
				res, err := ev.Eval(doc, q)
				if err != nil || len(res.Bindings) != c.rows {
					t.Fatalf("%s: %d rows, %v; want %d", c.src, len(res.Bindings), err, c.rows)
				}
			})
		}
		got, walk := allocs(indexed), allocs(walked)
		t.Logf("%s: %v allocs indexed, %v walking", c.src, got, walk)
		if got > walk || walk > c.walkBound {
			t.Errorf("%s: %v allocs indexed, %v walking; want at most the walk's, and the walk's at most %v", c.src, got, walk, c.walkBound)
		}
	}
	if len(indexed.Indexes()) == 0 || len(walked.Indexes()) != 0 {
		t.Fatalf("%d indexes on the call-free document, %d on the one with a call; want some and none",
			len(indexed.Indexes()), len(walked.Indexes()))
	}
}

// TestEqualityIndexDroppedByChangesItCannotFollow: a text or attribute edit
// on an attached node, the first service call and the loss of the root
// drop a document's indexes, a clone has none, and the next query answers
// right (from the walk, or a fresh index).
func TestEqualityIndexDroppedByChangesItCannotFollow(t *testing.T) {
	ev := axmlEvaluator()
	lastname := func(doc *xmldom.Document, src string, want int) {
		t.Helper()
		if res := mustEval(t, ev, doc, src); len(res.Bindings) != want {
			t.Fatalf("%s: %d rows, want %d", src, len(res.Bindings), want)
		}
	}
	doc := playersDoc(50)
	lastname(doc, oneRowQuery, 1)
	if cp := doc.Clone(); len(cp.Indexes()) != 0 {
		t.Fatal("a clone carries indexes")
	}
	text := doc.Root().Child(7).FirstElement("name").FirstElement("lastname").Child(0)
	text.SetText("X")
	if len(doc.Indexes()) != 0 {
		t.Fatal("a text edit kept the index")
	}
	lastname(doc, oneRowQuery, 0)
	lastname(doc, `Select p from p in ATP//player where p/name/lastname = X`, 1)
	doc.Root().Child(3).SetAttr("rank", "x")
	if len(doc.Indexes()) != 0 {
		t.Fatal("an attribute edit kept the index")
	}
	lastname(doc, `Select p from p in ATP//player where p/name/lastname = X`, 1)
	call := doc.CreateElement(xmldom.ServiceCallElement)
	if err := doc.AppendChild(doc.Root().Child(9), call); err != nil {
		t.Fatal(err)
	}
	if len(doc.Indexes()) != 0 {
		t.Fatal("the first service call kept the index")
	}
	lastname(doc, `Select p from p in ATP//player where p/name/lastname = L9`, 1)
	if len(doc.Indexes()) != 0 {
		t.Fatal("a document with a call was indexed")
	}
	if _, _, err := doc.Detach(call); err != nil {
		t.Fatal(err)
	}
	lastname(doc, `Select p from p in ATP//player where p/name/lastname = L9`, 1)
	root := doc.Root()
	if _, _, err := doc.Detach(root); err != nil {
		t.Fatal(err)
	}
	if len(doc.Indexes()) != 0 {
		t.Fatal("the loss of the root kept the index")
	}
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	lastname(doc, `Select p from p in ATP//player where p/name/lastname = L9`, 1)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}
