package axml

import (
	"errors"
	"fmt"
	"time"

	"axmltx/internal/query"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Errors reported by Apply.
var (
	ErrNoSuchDocument = errors.New("axml: no such document")
	ErrNoTargets      = errors.New("axml: location matched no nodes")
	ErrNoSuchNode     = errors.New("axml: no node with that ID")
	ErrTargetNotElem  = errors.New("axml: target is not an element")
)

// Apply executes one action against the store under transaction txn,
// logging every structural effect so the operation can be compensated. mat
// may be nil, in which case queries evaluate without materialization (pure
// XML mode); mode selects lazy or eager materialization.
//
// Apply holds the document's latch for the whole operation, released only
// around service invocations, so an action is atomic with respect to other
// actions on the same document; actions on other documents run alongside.
func (s *Store) Apply(txn string, a *Action, mat Materializer, mode EvalMode) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	e, ok := s.latch(a.DocName())
	if !ok {
		return nil, opError("apply", a, fmt.Errorf("%w: %q", ErrNoSuchDocument, a.DocName()))
	}
	defer e.latch.Unlock()
	if obs := s.applyObserver.Load(); obs != nil {
		start := time.Now()
		defer func() { (*obs)(time.Since(start)) }()
	}
	res := &Result{}
	var err error
	switch a.Type {
	case ActionQuery:
		err = s.applyQuery(txn, e, a, mat, mode, res)
	case ActionInsert:
		err = s.applyInsert(txn, e, a, mat, mode, res)
	case ActionDelete:
		err = s.applyDelete(txn, e, a, mat, mode, res)
	case ActionReplace:
		err = s.applyReplace(txn, e, a, mat, mode, res)
	}
	if err != nil {
		return nil, opError("apply", a, err)
	}
	return res, nil
}

// locate resolves the action's target nodes: the location query's result
// nodes, or the directly addressed node. Location evaluation may itself
// materialize service calls (the paper: "The <location> query evaluation
// may involve service call materializations").
func (s *Store) locate(txn string, e *docEntry, a *Action, mat Materializer, mode EvalMode, res *Result) ([]*xmldom.Node, error) {
	doc := e.doc
	if a.TargetID != 0 {
		n := doc.ByID(a.TargetID)
		if n == nil {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, a.TargetID)
		}
		if n.Parent() == nil && n != doc.Root() {
			// Already detached (e.g. deleted by a later operation that was
			// compensated first); nothing to do.
			return nil, nil
		}
		return []*xmldom.Node{n}, nil
	}
	if err := s.materializeForQuery(txn, e, a.Location, mat, mode, res); err != nil {
		return nil, err
	}
	qres, err := s.eval.Eval(doc, a.Location)
	if err != nil {
		return nil, err
	}
	return qres.Nodes(), nil
}

func (s *Store) applyQuery(txn string, e *docEntry, a *Action, mat Materializer, mode EvalMode, res *Result) error {
	if err := s.materializeForQuery(txn, e, a.Location, mat, mode, res); err != nil {
		return err
	}
	qres, err := s.eval.Eval(e.doc, a.Location)
	if err != nil {
		return err
	}
	res.Query = qres
	res.AffectedNodes += len(qres.Items)
	return nil
}

func (s *Store) applyInsert(txn string, e *docEntry, a *Action, mat Materializer, mode EvalMode, res *Result) error {
	doc := e.doc
	// Restoration path: re-attach the original detached subtree by ID so
	// compensation preserves node identity.
	if a.RestoreID != 0 {
		if n := doc.ByID(a.RestoreID); n != nil && n.Parent() == nil && n != doc.Root() {
			parents, err := s.locateInsertParents(txn, e, a, mat, mode, res)
			if err != nil {
				return err
			}
			return s.insertNode(txn, doc, parents[0], n, childPos(parents[0], a.Pos), res)
		}
		// Fall through: subtree unavailable, insert from Data.
	}
	targets, err := s.locateInsertParents(txn, e, a, mat, mode, res)
	if err != nil {
		return err
	}
	for _, parent := range targets {
		if parent.Kind() != xmldom.ElementNode {
			return ErrTargetNotElem
		}
		if err := s.insertData(txn, doc, parent, a.Pos, a.Data, res); err != nil {
			return err
		}
	}
	return nil
}

// insertData parses data and inserts its fragments under parent from
// position pos on.
func (s *Store) insertData(txn string, doc *xmldom.Document, parent *xmldom.Node, pos int, data string, res *Result) error {
	frags, err := parseFragments(doc, data)
	if err != nil {
		return err
	}
	pos = childPos(parent, pos)
	for i, frag := range frags {
		if err := s.insertNode(txn, doc, parent, frag, pos+i, res); err != nil {
			return err
		}
	}
	return nil
}

// childPos clamps an insert position to parent's children; -1 or any
// out-of-range position appends.
func childPos(parent *xmldom.Node, pos int) int {
	if pos < 0 || pos > parent.ChildCount() {
		return parent.ChildCount()
	}
	return pos
}

// parseFragments parses data as a sequence of sibling elements.
func parseFragments(doc *xmldom.Document, data string) ([]*xmldom.Node, error) {
	wrapper, err := xmldom.ParseString("fragment", "<frag>"+data+"</frag>")
	if err != nil {
		return nil, err
	}
	children := wrapper.Root().Children()
	if len(children) == 0 {
		return nil, fmt.Errorf("axml: empty data fragment")
	}
	out := make([]*xmldom.Node, 0, len(children))
	for _, c := range children {
		out = append(out, doc.Adopt(c))
	}
	return out, nil
}

func (s *Store) locateInsertParents(txn string, e *docEntry, a *Action, mat Materializer, mode EvalMode, res *Result) ([]*xmldom.Node, error) {
	if a.ParentID != 0 {
		n := e.doc.ByID(a.ParentID)
		if n == nil {
			return nil, fmt.Errorf("%w: parent %d", ErrNoSuchNode, a.ParentID)
		}
		return []*xmldom.Node{n}, nil
	}
	if err := s.materializeForQuery(txn, e, a.Location, mat, mode, res); err != nil {
		return nil, err
	}
	qres, err := s.eval.Eval(e.doc, a.Location)
	if err != nil {
		return nil, err
	}
	nodes := qres.Nodes()
	if len(nodes) == 0 {
		return nil, ErrNoTargets
	}
	return nodes, nil
}

func (s *Store) applyDelete(txn string, e *docEntry, a *Action, mat Materializer, mode EvalMode, res *Result) error {
	doc := e.doc
	targets, err := s.locate(txn, e, a, mat, mode, res)
	if err != nil {
		return err
	}
	if len(targets) == 0 && a.TargetID == 0 {
		return ErrNoTargets
	}
	for _, n := range pruneNested(targets) {
		if n == doc.Root() {
			return fmt.Errorf("axml: refusing to delete the document root")
		}
		if err := s.deleteNode(txn, doc, n, res); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) applyReplace(txn string, e *docEntry, a *Action, mat Materializer, mode EvalMode, res *Result) error {
	doc := e.doc
	targets, err := s.locate(txn, e, a, mat, mode, res)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		if a.TargetID != 0 {
			return nil // already gone; replace of a compensated node
		}
		return ErrNoTargets
	}
	// Replace decomposes into delete + insert at the same position (§3.1).
	for _, n := range pruneNested(targets) {
		if n == doc.Root() {
			return fmt.Errorf("axml: refusing to replace the document root")
		}
		parent := n.Parent()
		pos := n.Index()
		if err := s.deleteNode(txn, doc, n, res); err != nil {
			return err
		}
		if err := s.insertData(txn, doc, parent, pos, a.Data, res); err != nil {
			return err
		}
	}
	return nil
}

// deleteNode detaches n (keeping it indexed so compensation can restore it
// by ID) and logs the deletion with its full before-image. When the record
// cannot be appended, n is re-attached: an unlogged effect could never be
// compensated.
func (s *Store) deleteNode(txn string, doc *xmldom.Document, n *xmldom.Node, res *Result) error {
	parent, pos, err := doc.Detach(n)
	if err != nil {
		return err
	}
	rec := &wal.Record{
		Txn:    txn,
		Type:   wal.TypeDelete,
		Doc:    doc.Name(),
		NodeID: uint64(n.ID()),
		Pos:    pos,
		Nodes:  n.SubtreeSize(),
		XML:    xmldom.MarshalString(n),
	}
	if parent != nil {
		rec.ParentID = uint64(parent.ID())
	}
	lsn, err := s.log.Append(rec)
	if err != nil {
		_ = doc.InsertChild(parent, n, pos) // back where Detach took it from
		return err
	}
	res.noteLSN(lsn)
	res.DeletedXML = append(res.DeletedXML, rec.XML)
	res.AffectedNodes += rec.Nodes
	return nil
}

// insertNode attaches n under parent at pos and logs the insertion. An
// insert whose record never reached the log could not be compensated, so a
// failed append detaches n again and becomes the operation's error.
func (s *Store) insertNode(txn string, doc *xmldom.Document, parent, n *xmldom.Node, pos int, res *Result) error {
	if err := doc.InsertChild(parent, n, pos); err != nil {
		return err
	}
	rec := &wal.Record{
		Txn:      txn,
		Type:     wal.TypeInsert,
		Doc:      doc.Name(),
		NodeID:   uint64(n.ID()),
		ParentID: uint64(n.Parent().ID()),
		Pos:      n.Index(),
		Nodes:    n.SubtreeSize(),
		XML:      xmldom.MarshalString(n),
	}
	lsn, err := s.log.Append(rec)
	if err != nil {
		_, _, _ = doc.Detach(n) // just attached, so it cannot fail
		return err
	}
	res.noteLSN(lsn)
	res.InsertedIDs = append(res.InsertedIDs, n.ID())
	res.AffectedNodes += rec.Nodes
	return nil
}

func (r *Result) noteLSN(lsn uint64) {
	if r.FirstLSN == 0 {
		r.FirstLSN = lsn
	}
	r.LastLSN = lsn
}

// pruneNested drops nodes whose ancestor is also in the set: deleting the
// ancestor already removes them, and detaching the ancestor first would
// make the descendant's own detach fail.
func pruneNested(nodes []*xmldom.Node) []*xmldom.Node {
	out := nodes[:0:0]
	for _, n := range nodes {
		covered := false
		for _, m := range nodes {
			if m != n && m.IsAncestorOf(n) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, n)
		}
	}
	return out
}

// MustApply is Apply that panics on error; for examples and benchmarks
// whose inputs are static.
func (s *Store) MustApply(txn string, a *Action, mat Materializer, mode EvalMode) *Result {
	res, err := s.Apply(txn, a, mat, mode)
	if err != nil {
		panic(err)
	}
	return res
}

// ParseQuery parses query source with CleanSource normalization; a
// convenience re-export so API users do not import internal/query directly.
func ParseQuery(src string) (*query.Query, error) {
	return query.Parse(query.CleanSource(src))
}
