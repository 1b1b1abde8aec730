package axml

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// gateMaterializer's ResultName blocks, under the latch of the Apply that
// asks, until open is called or wait has passed. Lazy evaluation asks for
// the result name of every call whose existing results do not answer the
// query, so the gate holds an Apply in the middle of its operation.
type gateMaterializer struct {
	wait     time.Duration
	entered  chan struct{} // closed when ResultName is first called
	release  chan struct{}
	once     sync.Once
	opened   sync.Once
	released atomic.Bool // ResultName returned because open was called
}

func newGate(wait time.Duration) *gateMaterializer {
	return &gateMaterializer{wait: wait, entered: make(chan struct{}), release: make(chan struct{})}
}

func (m *gateMaterializer) open() { m.opened.Do(func() { close(m.release) }) }

func (m *gateMaterializer) ResultName(string) string {
	m.once.Do(func() { close(m.entered) })
	select {
	case <-m.release:
		m.released.Store(true)
	case <-time.After(m.wait):
	}
	return ""
}

func (m *gateMaterializer) Invoke(_ string, calls []*ServiceCall, params [][]Param) []InvokeOutcome {
	return InvokeEach(calls, params, func(*ServiceCall, []Param) ([]string, error) {
		return nil, errors.New("gateMaterializer: no service is expected to run")
	})
}

// gatedDoc has one call whose existing result (<old/>) does not answer a
// query for a/log, so a lazy query for a/log consults ResultName.
const gatedDoc = `<A><axml:sc methodName="svc" mode="replace"><old/></axml:sc><log/></A>`

// holdLatch starts a lazy query on A.xml whose ResultName blocks on gate,
// and returns once the query holds A.xml's latch. The returned function
// waits for the query's outcome. The cleanup opens the gate and waits too,
// so a failing test never leaves the query behind.
func holdLatch(t *testing.T, s *Store, gate *gateMaterializer) (wait func() error) {
	t.Helper()
	finished := make(chan struct{})
	var err error
	go func() {
		defer close(finished)
		_, err = s.Apply("TA", mustParseQ(`Select a/log from a in A`), gate, Lazy)
	}()
	t.Cleanup(func() {
		gate.open()
		<-finished
	})
	select {
	case <-gate.entered:
	case <-finished:
		t.Fatalf("gated query finished without consulting ResultName (err %v)", err)
	}
	return func() error {
		<-finished
		return err
	}
}

func insertEntry(s *Store, txn, doc string) error {
	loc, err := ParseQuery(`Select d/log from d in ` + doc)
	if err != nil {
		return err
	}
	_, err = s.Apply(txn, NewInsert(loc, `<entry/>`), nil, Lazy)
	return err
}

// TestApplyDisjointDocumentsOverlap: an operation on one document does not
// wait for an operation on another, while two operations on the same
// document still take turns.
func TestApplyDisjointDocumentsOverlap(t *testing.T) {
	t.Run("disjoint", func(t *testing.T) {
		s := NewStore(wal.NewMemory())
		for name, src := range map[string]string{"A.xml": gatedDoc, "B.xml": `<B><log/></B>`} {
			if _, err := s.AddParsed(name, src); err != nil {
				t.Fatal(err)
			}
		}
		// A's gate opens only once the Apply on B has finished: were B
		// waiting for A, neither would move until the gate timed out.
		gate := newGate(5 * time.Second)
		waitA := holdLatch(t, s, gate)
		bDone := make(chan error, 1)
		go func() {
			err := insertEntry(s, "TB", "B")
			gate.open()
			bDone <- err
		}()
		select {
		case err := <-bDone:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("Apply on B.xml waited for the Apply holding A.xml")
		}
		if err := waitA(); err != nil {
			t.Fatal(err)
		}
		if !gate.released.Load() {
			t.Fatal("A's query did not see B's Apply finish while it held A.xml")
		}
	})
	t.Run("same document", func(t *testing.T) {
		s := NewStore(wal.NewMemory())
		if _, err := s.AddParsed("A.xml", gatedDoc); err != nil {
			t.Fatal(err)
		}
		gate := newGate(200 * time.Millisecond)
		waitA := holdLatch(t, s, gate)
		second := make(chan error, 1)
		go func() {
			err := insertEntry(s, "T2", "A")
			gate.open()
			second <- err
		}()
		if err := waitA(); err != nil {
			t.Fatal(err)
		}
		if err := <-second; err != nil {
			t.Fatal(err)
		}
		if gate.released.Load() {
			t.Fatal("a second Apply on A.xml finished while the first held its latch")
		}
		if n := countEntries(t, s, "A.xml"); n != 1 {
			t.Fatalf("A.xml has %d entries, want 1", n)
		}
	})
}

// TestApplyFollowsReplacedDocument: an Apply that waited for the latch of a
// document replaced meanwhile applies to the replacement, not to the
// document that is no longer in the store.
func TestApplyFollowsReplacedDocument(t *testing.T) {
	s := NewStore(wal.NewMemory())
	old, err := s.AddParsed("A.xml", gatedDoc)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGate(5 * time.Second)
	waitA := holdLatch(t, s, gate)
	second := make(chan error, 1)
	go func() { second <- insertEntry(s, "T2", "A") }()
	time.Sleep(20 * time.Millisecond) // let the insert queue on the old latch
	if _, err := s.AddParsed("A.xml", gatedDoc); err != nil {
		t.Fatal(err)
	}
	gate.open()
	if err := waitA(); err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(xmldom.MarshalString(old.Root()), "<entry"); got != 0 {
		t.Fatalf("the replaced document took %d inserts", got)
	}
	if n := countEntries(t, s, "A.xml"); n != 1 {
		t.Fatalf("the replacement has %d entries, want 1", n)
	}
}

func countEntries(t *testing.T, s *Store, name string) int {
	t.Helper()
	d, ok := s.Snapshot(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	return strings.Count(xmldom.MarshalString(d.Root()), "<entry")
}
