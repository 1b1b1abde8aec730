package axml

import (
	"fmt"
	"strings"
	"sync"
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

// TestConcurrentQueriesShareOneIndex: reads and replaces from several
// goroutines on one call-free document, the equality indexes' first builds
// among them, all answer right, and the document ends with one index per
// key, each matching a fresh build. It is meant for the race detector.
func TestConcurrentQueriesShareOneIndex(t *testing.T) {
	s := NewStore(wal.NewMemory())
	doc, err := s.AddParsed("ATP.xml", playersXML(500))
	if err != nil {
		t.Fatal(err)
	}
	read, err := ParseQuery(`Select p/name/lastname, p/points from p in ATPList//player where p/citizenship = C7`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				txn := fmt.Sprintf("T%d.%d", g, i)
				if i%2 == 0 {
					res, err := s.Apply(txn, NewQuery(read), nil, Lazy)
					if err != nil || len(res.Query.Items) != 2*10 {
						t.Errorf("read: %v, %v; want 20 items", res, err)
						return
					}
					continue
				}
				write, err := ParseQuery(fmt.Sprintf(`Select p/points from p in ATPList//player where p/name/lastname = L%d`, 100*g+i))
				if err != nil {
					t.Error(err)
					return
				}
				res, err := s.Apply(txn, NewReplace(write, fmt.Sprintf(`<points>%d</points>`, i)), nil, Lazy)
				if err != nil || len(res.InsertedIDs) != 1 {
					t.Errorf("replace: %v, %v; want one insert", res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(doc.Indexes()); n != 2 {
		t.Fatalf("%d indexes after queries on two keys, want 2", n)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}
