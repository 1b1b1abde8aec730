package axml

import (
	"fmt"
	"strings"
	"testing"

	"axmltx/internal/wal"
)

// playersXML is a call-free ATPList of n players, the shape of the
// benchmark's local read-write documents.
func playersXML(n int) string {
	var b strings.Builder
	b.WriteString(`<ATPList date="18042005">`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name>`+
			`<citizenship>C%d</citizenship><points>%d</points></player>`, i+1, i, i, i%50, 100+i)
	}
	b.WriteString(`</ATPList>`)
	return b.String()
}

// TestLazyQueryOnCallFreeDocumentScansNothing: lazy evaluation looks for
// service calls to materialize only in a document whose count says it has
// some, for queries and for the location of updates alike; so do eager
// evaluation and MaterializeAll.
func TestLazyQueryOnCallFreeDocumentScansNothing(t *testing.T) {
	s := NewStore(wal.NewMemory())
	doc, err := s.AddParsed("ATP.xml", playersXML(5000))
	if err != nil {
		t.Fatal(err)
	}
	if n := doc.ServiceCallCount(); n != 0 {
		t.Fatalf("ServiceCallCount = %d, want 0", n)
	}
	read, err := ParseQuery(`Select p/name/lastname, p/points from p in ATPList//player where p/citizenship = C7`)
	if err != nil {
		t.Fatal(err)
	}
	write, err := ParseQuery(`Select p/points from p in ATPList//player where p/name/lastname = L7`)
	if err != nil {
		t.Fatal(err)
	}
	mat := newFakeMaterializer()
	var res *Result
	scans := callScansDuring(func() {
		if res, err = s.Apply("T1", NewQuery(read), mat, Lazy); err != nil {
			t.Fatal(err)
		}
		if _, err = s.Apply("T2", NewReplace(write, `<points>1</points>`), mat, Lazy); err != nil {
			t.Fatal(err)
		}
		if _, err = s.Apply("T3", NewQuery(read), mat, Eager); err != nil {
			t.Fatal(err)
		}
		if _, err = s.MaterializeAll("T4", "ATP.xml", mat); err != nil {
			t.Fatal(err)
		}
	})
	if scans != 0 {
		t.Fatalf("evaluation walked a call-free document %d times", scans)
	}
	if len(res.Query.Items) != 2*100 {
		t.Fatalf("query returned %d items, want 200", len(res.Query.Items))
	}

	// The counter does see the walks a document with calls needs.
	s2, _ := newTestStore(t)
	mat.results["getPoints"] = []string{`<points>1</points>`}
	mat.results["getGrandSlamsWonbyYear"] = []string{`<grandslamswon year="2005">W</grandslamswon>`}
	q, err := ParseQuery(`Select p/points from p in ATPList//player`)
	if err != nil {
		t.Fatal(err)
	}
	if scans := callScansDuring(func() {
		if _, err := s2.Apply("T5", NewQuery(q), mat, Lazy); err != nil {
			t.Fatal(err)
		}
	}); scans == 0 {
		t.Fatal("no walk counted for a document with calls")
	}
}
