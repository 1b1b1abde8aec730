package axml

import (
	"errors"
	"fmt"
	"sync"

	"axmltx/internal/query"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Materializer supplies service invocation to the document engine. The
// engine stays transport-agnostic: the peer layer implements Materializer by
// invoking local services directly and remote ones over the network, inside
// the calling transaction.
type Materializer interface {
	// Invoke executes the service named by the call with resolved
	// parameters, within transaction txn, and returns the result as XML
	// fragments (zero or more sibling elements). Errors become faults
	// handled by the recovery protocol. Implementations must be safe for
	// concurrent use: the store overlaps the network waits of one
	// materialization round's independent calls (SetMaxConcurrentCalls).
	Invoke(txn string, call *ServiceCall, params []Param) ([]string, error)
	// ResultName reports the element name the named service produces, or
	// "" when unknown. Lazy evaluation uses it to decide whether a query
	// needs a call that has no previous results to reveal its shape.
	ResultName(service string) string
}

// LocalityHinter is optionally implemented by a Materializer to report
// whether invoking a call would execute on this very peer. Local execution
// re-enters the store (a peer's composition document routinely calls the
// peer's own services), so such calls are kept on the strictly sequential
// path; only genuinely remote waits are overlapped by the worker pool.
type LocalityHinter interface {
	InvokesLocally(sc *ServiceCall) bool
}

// InvokeOutcome is the result of one invocation performed by a BatchInvoker.
type InvokeOutcome struct {
	Fragments []string
	Err       error
}

// BatchInvoker is optionally implemented by a Materializer that can overlap
// the network waits of several independent invocations itself while keeping
// its per-transaction bookkeeping (notably the active-peer chain of §3.3)
// in call order. When implemented, the store's round prefetch delegates to
// it instead of running its own generic worker pool, so chain extension and
// child-invocation records stay deterministic.
type BatchInvoker interface {
	// InvokeBatch invokes calls[i] with params[i], at most limit network
	// waits in flight at once, and returns one outcome per call.
	InvokeBatch(txn string, calls []*ServiceCall, params [][]Param, limit int) []InvokeOutcome
}

// ErrNoMaterializer is returned when evaluation needs a service call
// materialized but no Materializer was supplied.
var ErrNoMaterializer = errors.New("axml: query requires materialization but no materializer is configured")

// maxMaterializeRounds bounds fixpoint iteration in one evaluation:
// results may themselves be service calls, and a pathological service that
// keeps returning new calls must not loop the engine forever.
const maxMaterializeRounds = 8

// materializeForQuery performs the materialization phase of query
// evaluation (§3.1). Under Lazy, only service calls whose (known or
// declared) result names intersect the names the query references are
// invoked; under Eager, every top-level call is. The set of calls actually
// materialized is determined at run time — which is precisely why the
// paper's compensation must be constructed dynamically.
func (s *Store) materializeForQuery(txn string, e *docEntry, q *query.Query, mat Materializer, mode EvalMode, res *Result) error {
	needed := make(map[string]bool)
	for _, n := range q.Names() {
		needed[n] = true
	}
	visited := make(map[xmldom.NodeID]bool)
	for round := 0; round < maxMaterializeRounds; round++ {
		var due []*ServiceCall
		for _, sc := range TopLevelServiceCalls(e.doc) {
			if visited[sc.ID()] {
				continue
			}
			if mode == Eager || s.callMayProduce(sc, needed, mat) {
				due = append(due, sc)
			}
		}
		if len(due) == 0 {
			return nil
		}
		if mat == nil {
			return fmt.Errorf("%w (service %q)", ErrNoMaterializer, due[0].Service())
		}
		for _, sc := range due {
			visited[sc.ID()] = true
		}
		if err := s.materializeRound(txn, e, due, mat, res); err != nil {
			return err
		}
	}
	return nil
}

// materializeRound materializes one round's due calls. Calls whose network
// waits can safely overlap are invoked first through a bounded worker pool
// (prefetchInvocations); then every call is processed strictly in document
// order — prefetched results are merged, the rest take the sequential path —
// so the WAL record sequence and therefore compensation are identical to
// fully sequential execution.
func (s *Store) materializeRound(txn string, e *docEntry, due []*ServiceCall, mat Materializer, res *Result) error {
	doc := e.doc
	pre := s.prefetchInvocations(txn, e, due, mat)
	for i, sc := range due {
		if r, ok := pre[i]; ok {
			if r.err != nil {
				return fmt.Errorf("axml: materialize %s: %w", sc.Describe(), r.err)
			}
			if !attached(doc, sc.Node()) {
				// Detached while the pool ran (or by an earlier call in this
				// round); its results have nowhere to go.
				continue
			}
			if err := s.mergeResults(txn, doc, sc, r.fragments, res); err != nil {
				return err
			}
			continue
		}
		// The call may have been detached by a previous materialization
		// in this round (replace mode discarding an sc result).
		if !attached(doc, sc.Node()) {
			continue
		}
		if err := s.materializeCall(txn, e, sc, mat, res); err != nil {
			return err
		}
	}
	return nil
}

// prefetched is the outcome of one pooled Invoke.
type prefetched struct {
	fragments []string
	err       error
}

// prefetchInvocations overlaps the Invoke network waits of the round's
// independent calls through a bounded worker pool and returns their results
// keyed by position in due. Called (and returning) with e's latch held; the
// latch is released only while the pool runs, exactly like the sequential
// path releases it around each single Invoke.
//
// A call stays off the pool (sequential fallback) when any of:
//   - it has nested service-call parameters — resolving those logs WAL
//     records, whose order must match sequential execution;
//   - the materializer reports it executes locally (LocalityHinter) — local
//     execution re-enters this store;
//   - an earlier replace-mode due call's existing results contain it — that
//     call's merge would detach it, and sequential execution would
//     therefore never invoke it.
func (s *Store) prefetchInvocations(txn string, e *docEntry, due []*ServiceCall, mat Materializer) map[int]*prefetched {
	if mat == nil || len(due) < 2 {
		return nil
	}
	limit := s.concurrencyFor(len(due))
	if limit <= 1 {
		return nil
	}
	hinter, _ := mat.(LocalityHinter)
	// Existing result roots of earlier replace-mode calls: anything beneath
	// them may be discarded before its own turn comes.
	var hazards []*xmldom.Node
	type job struct {
		i      int
		sc     *ServiceCall
		params []Param
	}
	var jobs []job
	for i, sc := range due {
		eligible := true
		for _, h := range hazards {
			if h == sc.Node() || h.IsAncestorOf(sc.Node()) {
				eligible = false
				break
			}
		}
		if sc.Mode() == ModeReplace {
			hazards = append(hazards, sc.Results()...)
		}
		if !eligible || (hinter != nil && hinter.InvokesLocally(sc)) {
			continue
		}
		params := sc.Params()
		for _, p := range params {
			if p.Nested != nil {
				eligible = false
				break
			}
		}
		if eligible {
			jobs = append(jobs, job{i: i, sc: sc, params: params})
		}
	}
	if len(jobs) < 2 {
		return nil // nothing to overlap
	}
	out := make(map[int]*prefetched, len(jobs))
	if bi, ok := mat.(BatchInvoker); ok {
		calls := make([]*ServiceCall, len(jobs))
		params := make([][]Param, len(jobs))
		for k, j := range jobs {
			calls[k], params[k] = j.sc, j.params
		}
		e.latch.Unlock()
		outcomes := bi.InvokeBatch(txn, calls, params, limit)
		e.latch.Lock()
		for k := range jobs {
			if k < len(outcomes) {
				out[jobs[k].i] = &prefetched{fragments: outcomes[k].Fragments, err: outcomes[k].Err}
			}
		}
		return out
	}
	var omu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, limit)
	e.latch.Unlock()
	for _, j := range jobs {
		sem <- struct{}{}
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			frags, err := mat.Invoke(txn, j.sc, j.params)
			omu.Lock()
			out[j.i] = &prefetched{fragments: frags, err: err}
			omu.Unlock()
		}(j)
	}
	wg.Wait()
	e.latch.Lock()
	return out
}

// callMayProduce reports whether sc could contribute nodes the query needs:
// its existing results carry a needed name, or the registry declares a
// needed result name. A call whose result shape is unknowable (no previous
// results and no declaration — typically a call to a remote service) must
// be materialized conservatively: lazy evaluation may only skip calls it
// can prove irrelevant.
func (s *Store) callMayProduce(sc *ServiceCall, needed map[string]bool, mat Materializer) bool {
	names := sc.ResultNames()
	for _, n := range names {
		if needed[n] {
			return true
		}
	}
	var declared string
	if mat != nil {
		declared = mat.ResultName(sc.Service())
	}
	if declared != "" {
		return needed[declared]
	}
	// No declaration: previous results, when present, are the only shape
	// evidence; with no evidence at all, materialize conservatively.
	return len(names) == 0
}

// materializeCall invokes one service call and merges its results into the
// document according to the call's mode, logging every structural effect
// under txn. Parameters that are themselves service calls are materialized
// first (nested local invocation).
func (s *Store) materializeCall(txn string, e *docEntry, sc *ServiceCall, mat Materializer, res *Result) error {
	if mat == nil {
		return fmt.Errorf("%w (service %q)", ErrNoMaterializer, sc.Service())
	}
	params, err := s.resolveParams(txn, e, sc, mat, res)
	if err != nil {
		return err
	}
	// Release the document's latch for the invocation: the service may be
	// local to this very peer, in which case its execution re-enters Apply
	// (a peer's composition document routinely calls the peer's own update
	// services). Transaction-level isolation is the lock table's job, not
	// the latch's.
	e.latch.Unlock()
	fragments, err := mat.Invoke(txn, sc, params)
	e.latch.Lock()
	if err != nil {
		return fmt.Errorf("axml: materialize %s: %w", sc.Describe(), err)
	}
	if !attached(e.doc, sc.Node()) {
		// The call was detached while the latch was released (e.g. a nested
		// materialization in replace mode discarded it); its results have
		// nowhere to go.
		return nil
	}
	return s.mergeResults(txn, e.doc, sc, fragments, res)
}

// mergeResults applies one successful invocation to the document under its
// latch: the materialize record, replace-mode discard of previous
// results, and insertion of the result fragments — the paper's run-time
// facts that dynamic compensation is built from.
func (s *Store) mergeResults(txn string, doc *xmldom.Document, sc *ServiceCall, fragments []string, res *Result) error {
	lsn, err := s.log.Append(&wal.Record{
		Txn:     txn,
		Type:    wal.TypeMaterialize,
		Doc:     doc.Name(),
		NodeID:  uint64(sc.ID()),
		Service: sc.Service(),
	})
	if err != nil {
		return err
	}
	res.noteLSN(lsn)
	res.Materialized = append(res.Materialized, sc.Service())

	if sc.Mode() == ModeReplace {
		for _, old := range sc.Results() {
			if err := s.deleteNode(txn, doc, old, res); err != nil {
				return err
			}
		}
	}
	for _, frag := range fragments {
		n, err := xmldom.ParseFragment(doc, frag)
		if err != nil {
			return fmt.Errorf("axml: service %q returned malformed XML: %w", sc.Service(), err)
		}
		if err := s.insertNode(txn, doc, sc.Node(), n, sc.Node().ChildCount(), res); err != nil {
			return err
		}
	}
	return nil
}

// attached reports whether n is reachable from the document root.
func attached(doc *xmldom.Document, n *xmldom.Node) bool {
	for ; n != nil; n = n.Parent() {
		if n == doc.Root() {
			return true
		}
	}
	return false
}

// resolveParams materializes nested service-call parameters and returns the
// flat parameter list the service is invoked with.
func (s *Store) resolveParams(txn string, e *docEntry, sc *ServiceCall, mat Materializer, res *Result) ([]Param, error) {
	params := sc.Params()
	for i, p := range params {
		if p.Nested == nil {
			continue
		}
		if err := s.materializeCall(txn, e, p.Nested, mat, res); err != nil {
			return nil, fmt.Errorf("axml: parameter %q of %s: %w", p.Name, sc.Describe(), err)
		}
		var text string
		for _, r := range p.Nested.Results() {
			text += r.TextContent()
		}
		params[i].Value = text
	}
	return params, nil
}

// MaterializeCall invokes one service call outside query evaluation (e.g.
// the periodic "frequency" trigger), under the document's latch.
func (s *Store) MaterializeCall(txn string, docName string, scID xmldom.NodeID, mat Materializer) (*Result, error) {
	e, ok := s.latch(docName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDocument, docName)
	}
	defer e.latch.Unlock()
	n := e.doc.ByID(scID)
	if n == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, scID)
	}
	sc, ok := AsServiceCall(n)
	if !ok {
		return nil, fmt.Errorf("axml: node %d is not a service call", scID)
	}
	res := &Result{}
	if err := s.materializeCall(txn, e, sc, mat, res); err != nil {
		return nil, err
	}
	return res, nil
}

// MaterializeAll eagerly materializes every top-level service call of the
// named document, returning the combined result. It is the engine behind
// Eager evaluation benchmarks and document warm-up.
func (s *Store) MaterializeAll(txn string, docName string, mat Materializer) (*Result, error) {
	e, ok := s.latch(docName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDocument, docName)
	}
	defer e.latch.Unlock()
	doc := e.doc
	res := &Result{}
	visited := make(map[xmldom.NodeID]bool)
	for round := 0; round < maxMaterializeRounds; round++ {
		var due []*ServiceCall
		for _, sc := range TopLevelServiceCalls(doc) {
			if visited[sc.ID()] || !attached(doc, sc.Node()) {
				continue
			}
			visited[sc.ID()] = true
			due = append(due, sc)
		}
		if len(due) == 0 {
			break
		}
		if err := s.materializeRound(txn, e, due, mat, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
