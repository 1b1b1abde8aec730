package axml

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"axmltx/internal/query"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Store is a peer's document repository: a set of AXML documents plus the
// operation log through which every mutation flows.
//
// Each document has its own latch, kept beside it in one docEntry. Apply,
// MaterializeCall, MaterializeAll, Snapshot and ShardDocument each hold the
// latch of the one document they work on, so an operation is atomic with
// respect to other operations on the same document while operations on
// different documents run in parallel. The latch is released around every
// Materializer invocation: the service may be local and re-enter the store.
// s.mu guards only the maps (docs, frags, spines, manifests); the settings
// are atomics. Transaction-level isolation (waiting, holding until commit)
// is the lock table's job in the transaction manager, not the latch's.
//
// Lock order:
//   - a latch holder may take s.mu briefly;
//   - nobody waits for a latch while holding s.mu;
//   - no latch is held while another is acquired, with one exception:
//     SaveAll takes every latch in name order, syncs the log, writes the
//     files and releases them.
type Store struct {
	mu   sync.Mutex
	docs map[string]*docEntry
	// frags and spines hold the fragment-addressed form of sharded
	// documents (fragment.go): a sharded document exists as a spine plus
	// the subset of its fragments this peer currently owns, and is
	// reassembled on demand. manifests records, per sharded document, the
	// complete fragment ID set fixed at split time — the authoritative
	// answer to "which fragments must an assembly gather", independent of
	// where migration has scattered them.
	frags     map[FragmentID]*Fragment
	spines    map[string]string
	manifests map[string][]FragmentID
	log       wal.Log
	eval      *query.Evaluator
	// maxCalls caps how many of a materialization round's due service calls
	// may have their Invoke network waits in flight at once; 0 means
	// DefaultMaxConcurrentCalls, 1 disables the overlap entirely.
	maxCalls atomic.Int32
	// applyObserver, when set, receives the wall-clock duration of every
	// Apply (action evaluation including its materialization rounds).
	applyObserver atomic.Pointer[func(time.Duration)]
}

// docEntry is one document and the latch that serializes the operations on
// it. An entry is never reused: Add installs a fresh one, so an operation
// that finds its entry gone from the map after taking the latch knows the
// document was replaced or dropped meanwhile.
type docEntry struct {
	latch sync.Mutex
	doc   *xmldom.Document
}

// DefaultMaxConcurrentCalls is the default cap on overlapping service
// invocations within one materialization round (further bounded by the
// number of due calls).
const DefaultMaxConcurrentCalls = 8

// NewStore returns a store writing to log.
func NewStore(log wal.Log) *Store {
	return &Store{
		docs: make(map[string]*docEntry),
		log:  log,
		eval: &query.Evaluator{
			Transparent: map[string]bool{ElemSC: true},
			Hidden:      map[string]bool{ElemParams: true, ElemCatch: true, ElemCatchAll: true, ElemRetry: true},
		},
	}
}

// Log returns the store's operation log.
func (s *Store) Log() wal.Log { return s.log }

// SetMaxConcurrentCalls bounds the per-round service-invocation overlap:
// 0 restores the default (min(DefaultMaxConcurrentCalls, len(due))), 1
// forces strictly sequential materialization.
func (s *Store) SetMaxConcurrentCalls(n int) {
	if n < 0 {
		n = 0
	}
	s.maxCalls.Store(int32(n))
}

// concurrencyFor resolves the worker-pool size for a round of n due calls.
func (s *Store) concurrencyFor(n int) int {
	limit := int(s.maxCalls.Load())
	if limit == 0 {
		limit = DefaultMaxConcurrentCalls
	}
	if limit > n {
		limit = n
	}
	return limit
}

// SetApplyObserver installs a latency callback fired once per Apply with
// the operation's duration (materialization included). Install before the
// store is shared; a nil fn disables observation.
func (s *Store) SetApplyObserver(fn func(time.Duration)) {
	if fn == nil {
		s.applyObserver.Store(nil)
		return
	}
	s.applyObserver.Store(&fn)
}

// Evaluator returns the AXML-configured query evaluator.
func (s *Store) Evaluator() *query.Evaluator { return s.eval }

// Add registers a document under its name; it replaces any previous
// document with the same name.
func (s *Store) Add(doc *xmldom.Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[doc.Name()] = &docEntry{doc: doc}
}

// AddParsed parses src and registers the result.
func (s *Store) AddParsed(name, src string) (*xmldom.Document, error) {
	doc, err := xmldom.ParseString(name, src)
	if err != nil {
		return nil, err
	}
	s.Add(doc)
	return doc, nil
}

// Get returns the named document, matching either the repository name
// ("ATPList.xml"), the name without suffix, or the root element name.
func (s *Store) Get(name string) (*xmldom.Document, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.lookup(name); ok {
		return e.doc, true
	}
	return nil, false
}

// lookup resolves a document name to its entry; called with s.mu held.
func (s *Store) lookup(name string) (*docEntry, bool) {
	if e, ok := s.docs[name]; ok {
		return e, true
	}
	if e, ok := s.docs[name+".xml"]; ok {
		return e, true
	}
	for _, e := range s.docs {
		if e.doc.Root() != nil && e.doc.Root().Name() == name {
			return e, true
		}
	}
	return nil, false
}

// latch returns the named document's entry with its latch held; the caller
// unlocks it. When the entry was replaced or dropped while the caller
// waited for its latch, the name is looked up again.
func (s *Store) latch(name string) (*docEntry, bool) {
	for {
		s.mu.Lock()
		e, ok := s.lookup(name)
		s.mu.Unlock()
		if !ok {
			return nil, false
		}
		e.latch.Lock()
		if s.current(e) {
			return e, true
		}
		e.latch.Unlock()
	}
}

// current reports whether e is still the store's entry for its document.
func (s *Store) current(e *docEntry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docs[e.doc.Name()] == e
}

// Names returns the registered document names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.docs))
	for n := range s.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Remove drops the named document and reports whether it was present.
func (s *Store) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[name]; !ok {
		return false
	}
	delete(s.docs, name)
	return true
}

// Snapshot returns an ID-preserving deep copy of the named document, for
// test assertions and for shipping fragments between peers.
func (s *Store) Snapshot(name string) (*xmldom.Document, bool) {
	e, ok := s.latch(name)
	if !ok {
		return nil, false
	}
	defer e.latch.Unlock()
	return e.doc.Clone(), true
}

// EvalMode selects between the two AXML query evaluation modes (§3.1).
type EvalMode uint8

const (
	// Lazy materializes only the embedded service calls whose results the
	// query may need — the preferred AXML mode.
	Lazy EvalMode = iota + 1
	// Eager materializes every (top-level) embedded service call before
	// evaluating.
	Eager
)

func (m EvalMode) String() string {
	if m == Eager {
		return "eager"
	}
	return "lazy"
}

// Result is the outcome of applying an action.
type Result struct {
	// Query holds the evaluation result for query actions.
	Query *query.Result
	// InsertedIDs are the root IDs of subtrees this action inserted
	// (directly or through materialization), in application order.
	InsertedIDs []xmldom.NodeID
	// DeletedXML holds the before-images of subtrees this action deleted.
	DeletedXML []string
	// AffectedNodes counts XML nodes touched (inserted + deleted subtree
	// sizes, plus located nodes for queries) — the paper's cost measure.
	AffectedNodes int
	// Materialized lists the service names invoked during evaluation.
	Materialized []string
	// FirstLSN and LastLSN bracket the log records this action produced;
	// both are zero when the action logged nothing (pure query).
	FirstLSN, LastLSN uint64
}

// opError annotates an error with operation context.
func opError(op string, a *Action, err error) error {
	return fmt.Errorf("axml: %s %s on %q: %w", op, a.Type, a.DocName(), err)
}
