package query

import (
	"fmt"
	"slices"

	"axmltx/internal/xmldom"
)

// eqIndex is an equality index over one call-free document: for one
// (binding path, key path) pair, such as (ATP//player, name/lastname), it
// maps each key value to the bindings whose key path reaches an item with
// that value. It answers `where <key path> = <literal>` with the bindings
// that can pass, so Eval runs the where clause and the selects on those
// instead of walking the document for every binding.
//
// Eval builds it under the document's latch on the first query that can
// use it, from the walk itself, and the document keeps it current through
// xmldom.Index: a subtree that joins the tree brings its bindings in, one
// that leaves takes its bindings out, and every binding above the change is
// re-keyed (a walk up, and a key walk of each such binding). Anything else
// drops it (see xmldom.Index), and the next query builds it again.
type eqIndex struct {
	e      *evaluation
	doc    *xmldom.Document
	source Path // named child steps, then named descendant steps
	key    Path // child and descendant steps, an attribute step last
	byKey  map[string]*bucket
	keysOf map[*xmldom.Node][]string // each binding's distinct key values
	// scratch backs the key values a re-key computes before it knows
	// whether they changed.
	scratch []string
}

// bucket holds the bindings with one key value.
type bucket struct {
	nodes []*xmldom.Node
	// sorted is false once maintenance has added a binding out of
	// document order; the next lookup sorts.
	sorted bool
}

// indexed answers q from an equality index of doc when its where clause
// has an `=` conjunct the index can take (a top-level `=`, or one inside
// `and`s), building the index on first use. It returns the candidate
// bindings in document order, which is the walk's order for the source
// paths it accepts, and the elements it visited: the candidates, plus the
// walk of a build. ok is false for a document with service calls and for
// every other query, which takes the walk.
func (e *evaluation) indexed(doc *xmldom.Document, q *Query) (cands []*xmldom.Node, visited int, ok bool) {
	if doc.ServiceCallCount() != 0 || !e.indexableSource(q.Source) || !validWhere(q.Where) {
		return nil, 0, false
	}
	ix, cmp := e.findIndex(doc, q.Source, q.Where)
	if ix == nil {
		if cmp == nil || len(doc.Indexes()) >= xmldom.MaxIndexes {
			return nil, 0, false
		}
		ix = &eqIndex{e: e, doc: doc, source: q.Source, key: cmp.Path}
		visited = ix.build()
		doc.AddIndex(ix)
	}
	cands = ix.lookup(cmp.Literal)
	return cands, visited + len(cands), true
}

// indexableSource reports whether the walk reaches a source path's
// bindings in document order, which is the order a lookup returns: named
// child steps, then named descendant steps. A child step after a
// descendant step can reach the children of nested contexts out of
// document order, a transparent name can nest within itself, and a
// wildcard can reach a transparent element; none of those paths is
// indexed. The bit sets of state limit the path to 63 steps.
func (e *evaluation) indexableSource(source Path) bool {
	if len(source) == 0 || len(source) > 63 {
		return false
	}
	desc := false
	for _, step := range source {
		switch {
		case step.Name == "*" || e.transparent(step.Name) || e.hidden(step.Name):
			return false
		case step.Axis == AxisDescendant:
			desc = true
		case step.Axis != AxisChild || desc:
			return false
		}
	}
	return true
}

// validWhere reports whether every comparison path in expr passes
// checkPath, so the walk could not fail on a binding the index skips.
func validWhere(expr Expr) bool {
	switch x := expr.(type) {
	case *Compare:
		return checkPath(x.Path) == nil
	case *And:
		return validWhere(x.L) && validWhere(x.R)
	case *Or:
		return validWhere(x.L) && validWhere(x.R)
	}
	return false
}

// keyPath reports whether a comparison path can key an index: child and
// descendant steps, and an attribute step only last. Such a path stays in
// the binding's subtree.
func keyPath(path Path) bool {
	for i, step := range path {
		switch step.Axis {
		case AxisChild, AxisDescendant:
		case AxisAttribute:
			if i != len(path)-1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// findIndex returns the `=` conjunct of expr that doc already indexes for
// source, with its index, or else the first conjunct that could be indexed
// and a nil index.
func (e *evaluation) findIndex(doc *xmldom.Document, source Path, expr Expr) (*eqIndex, *Compare) {
	switch x := expr.(type) {
	case *Compare:
		if x.Op != OpEq || !keyPath(x.Path) {
			return nil, nil
		}
		for _, other := range doc.Indexes() {
			if ix, ok := other.(*eqIndex); ok && ix.e == e && slices.Equal(ix.source, source) && slices.Equal(ix.key, x.Path) {
				return ix, x
			}
		}
		return nil, x
	case *And:
		ix, first := e.findIndex(doc, source, x.L)
		if ix != nil {
			return ix, first
		}
		ix, cmp := e.findIndex(doc, source, x.R)
		if ix != nil || first == nil {
			return ix, cmp
		}
		return nil, first
	}
	return nil, nil
}

// build fills the index from one walk of the source path and returns the
// elements that walk visited.
func (ix *eqIndex) build() int {
	ix.byKey = make(map[string]*bucket)
	ix.keysOf = make(map[*xmldom.Node][]string)
	return ix.e.walk(ix.doc.Root(), ix.source, func(it Item) bool {
		ix.put(it.Node, ix.values(it.Node), true)
		return true
	})
}

// lookup returns the bindings keyed lit, in document order.
func (ix *eqIndex) lookup(lit string) []*xmldom.Node {
	b := ix.byKey[lit]
	if b == nil {
		return nil
	}
	if !b.sorted {
		sortDocumentOrder(b.nodes)
		b.sorted = true
	}
	return b.nodes
}

// values returns the distinct values of the items the key path reaches
// from binding b, in ix.scratch: the values Compare tests the literal
// against.
func (ix *eqIndex) values(b *xmldom.Node) []string {
	vals := ix.scratch[:0]
	ix.e.walk(b, ix.key, func(it Item) bool {
		if v := it.Value(); !slices.Contains(vals, v) {
			vals = append(vals, v)
		}
		return true
	})
	ix.scratch = vals
	return vals
}

// put files binding b under vals, copied. inOrder says b follows every
// binding already filed, as it does while build walks.
func (ix *eqIndex) put(b *xmldom.Node, vals []string, inOrder bool) {
	ix.keysOf[b] = slices.Clone(vals)
	for _, v := range vals {
		bk := ix.byKey[v]
		if bk == nil {
			bk = &bucket{sorted: true}
			ix.byKey[v] = bk
		}
		bk.sorted = bk.sorted && (inOrder || len(bk.nodes) == 0)
		bk.nodes = append(bk.nodes, b)
	}
}

// drop takes binding b out of the index.
func (ix *eqIndex) drop(b *xmldom.Node) {
	for _, v := range ix.keysOf[b] {
		bk := ix.byKey[v]
		i := slices.Index(bk.nodes, b)
		bk.nodes = slices.Delete(bk.nodes, i, i+1)
		if len(bk.nodes) == 0 {
			delete(ix.byKey, v)
		}
	}
	delete(ix.keysOf, b)
}

// Attached files the bindings inside the subtree that joined the tree and
// re-keys the bindings above it.
func (ix *eqIndex) Attached(n *xmldom.Node) {
	ix.putUnder(n, ix.state(n.Parent()))
	ix.rekeyFrom(n.Parent())
}

// Detached drops the bindings inside the subtree that left the tree and
// re-keys the bindings above where it was.
func (ix *eqIndex) Detached(n, parent *xmldom.Node) {
	ix.dropUnder(n)
	ix.rekeyFrom(parent)
}

// putUnder files the bindings in the subtree rooted at n, whose parent is
// in state s.
func (ix *eqIndex) putUnder(n *xmldom.Node, s uint64) {
	s, binding := ix.next(s, n)
	if binding {
		ix.put(n, ix.values(n), false)
	}
	if s == 0 {
		return
	}
	for _, c := range n.Children() {
		ix.putUnder(c, s)
	}
}

// sameValues reports whether two lists of distinct values hold the same
// values.
func sameValues(a, b []string) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(v string) bool { return !slices.Contains(b, v) })
}

// dropUnder drops the bindings in the subtree rooted at n.
func (ix *eqIndex) dropUnder(n *xmldom.Node) {
	if n.Kind() != xmldom.ElementNode {
		return
	}
	if _, ok := ix.keysOf[n]; ok {
		ix.drop(n)
	}
	for _, c := range n.Children() {
		ix.dropUnder(c)
	}
}

// rekeyFrom re-keys n and each of its ancestors that is a binding: their
// subtrees, and so maybe their key values, changed.
func (ix *eqIndex) rekeyFrom(n *xmldom.Node) {
	for ; n != nil; n = n.Parent() {
		old, ok := ix.keysOf[n]
		if !ok {
			continue
		}
		vals := ix.values(n)
		if sameValues(vals, old) {
			continue
		}
		ix.drop(n)
		ix.put(n, vals, false)
	}
}

// state returns the steps of the source path that are pending at attached
// element n: bit j is set when steps 0..j-1 can have matched along the
// path from the root to n while step j may still match below n. The root
// has only step 0 pending; a detached node has none.
func (ix *eqIndex) state(n *xmldom.Node) uint64 {
	if n.Parent() == nil {
		if n == ix.doc.Root() {
			return 1
		}
		return 0
	}
	s, _ := ix.next(ix.state(n.Parent()), n)
	return s
}

// next returns the state of n from its parent's state s, and whether the
// last step matches n, making n a binding. It mirrors pathWalker: a hidden
// element ends every match; a child step looks through transparent
// elements; a descendant step stays pending below any element.
func (ix *eqIndex) next(s uint64, n *xmldom.Node) (uint64, bool) {
	if s == 0 || n.Kind() != xmldom.ElementNode || ix.e.hidden(n.Name()) {
		return 0, false
	}
	var out uint64
	binding := false
	transparent := ix.e.transparent(n.Name())
	for j, step := range ix.source {
		if s&(1<<j) == 0 {
			continue
		}
		if step.Name == n.Name() {
			if j == len(ix.source)-1 {
				binding = true
			} else {
				out |= 1 << (j + 1)
			}
		}
		if step.Axis == AxisDescendant || transparent {
			out |= 1 << j
		}
	}
	return out, binding
}

// Check compares the index with one built afresh: the same bindings under
// the same values, and document order wherever a bucket claims it.
func (ix *eqIndex) Check() error {
	fresh := &eqIndex{e: ix.e, doc: ix.doc, source: ix.source, key: ix.key}
	fresh.build()
	name := "index " + ix.source.String() + " = " + ix.key.String()
	if len(ix.keysOf) != len(fresh.keysOf) || len(ix.byKey) != len(fresh.byKey) {
		return fmt.Errorf("%s: %d bindings under %d values, a fresh build has %d under %d",
			name, len(ix.keysOf), len(ix.byKey), len(fresh.keysOf), len(fresh.byKey))
	}
	for b, want := range fresh.keysOf {
		got, ok := ix.keysOf[b]
		if !ok || !sameValues(got, want) {
			return fmt.Errorf("%s: node %d keyed %q, a fresh build keys it %q", name, b.ID(), got, want)
		}
	}
	for v, want := range fresh.byKey {
		got := ix.byKey[v]
		if got == nil || len(got.nodes) != len(want.nodes) ||
			slices.ContainsFunc(want.nodes, func(n *xmldom.Node) bool { return !slices.Contains(got.nodes, n) }) {
			return fmt.Errorf("%s: value %q holds other bindings than a fresh build", name, v)
		}
		if got.sorted && !slices.Equal(got.nodes, want.nodes) {
			return fmt.Errorf("%s: value %q claims document order but is not in it", name, v)
		}
	}
	return nil
}

// sortDocumentOrder sorts attached nodes of one document into document
// order, by each node's child positions from the root.
func sortDocumentOrder(nodes []*xmldom.Node) {
	pos := make(map[*xmldom.Node][]int, len(nodes))
	for _, n := range nodes {
		var p []int
		for a := n; a.Parent() != nil; a = a.Parent() {
			p = append(p, a.Index())
		}
		slices.Reverse(p)
		pos[n] = p
	}
	slices.SortFunc(nodes, func(a, b *xmldom.Node) int { return slices.Compare(pos[a], pos[b]) })
}
