package query

import (
	"fmt"
	"strings"
	"sync/atomic"

	"axmltx/internal/xmldom"
)

// Item is one result of path evaluation: either an element/text node, or an
// attribute of Node (when Attr is non-empty).
type Item struct {
	Node *xmldom.Node
	Attr string // attribute name when the path ended on an attribute step
}

// Value returns the item's comparable string value: the attribute value for
// attribute items, otherwise the node's text content.
func (it Item) Value() string {
	if it.Attr != "" {
		v, _ := it.Node.Attr(it.Attr)
		return v
	}
	return it.Node.TextContent()
}

// Result is the outcome of evaluating a Query.
type Result struct {
	// Bindings are the nodes the binding variable matched, in document
	// order, after the where predicate.
	Bindings []*xmldom.Node
	// PerBinding holds, for each binding, the items its select paths
	// produced (select paths concatenated in order).
	PerBinding [][]Item
	// Items is the deduplicated union of all selections, in the order
	// discovered (document order within each binding).
	Items []Item
	// Visited counts the elements the evaluation passed to find its
	// bindings: those the source path's walk went through, or the equality
	// index's candidates (plus the walk that built the index, on the query
	// that built it). The where clause and the selects are not counted.
	Visited int
}

// Nodes returns the distinct non-attribute result nodes.
func (r *Result) Nodes() []*xmldom.Node {
	var out []*xmldom.Node
	for _, it := range r.Items {
		if it.Attr == "" {
			out = append(out, it.Node)
		}
	}
	return out
}

// Strings returns the items' values, convenient in tests and examples.
func (r *Result) Strings() []string {
	out := make([]string, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.Value()
	}
	return out
}

// Evaluator evaluates queries over a document. The zero value is a plain
// XML evaluator; configure Transparent and Hidden for AXML semantics,
// before the first evaluation: later changes are not seen.
type Evaluator struct {
	// Transparent names elements whose children are addressed as if they
	// were children of the element's own parent (the paper's <axml:sc>:
	// results of a call are stored inside the sc element but a query for
	// p/points must see them).
	Transparent map[string]bool
	// Hidden names elements whose whole subtree is invisible to queries
	// (<axml:params>: parameter values must not be confused with results).
	Hidden map[string]bool

	// sets holds Transparent and Hidden as the walk tests them, collected
	// at the first Eval or EvalPath: configure both before that.
	sets atomic.Pointer[evaluation]
}

// Eval evaluates q against doc. The query's document name must match the
// root element name (or the document's repository name, with or without the
// ".xml" suffix).
//
// Bindings stream from the source path one at a time: the where predicate
// runs on each as it is reached, and the selects run only for the bindings
// that pass, appending straight into the result. On a document without
// service calls, a where clause with an `=` conjunct takes its bindings
// from an equality index of doc instead (see eqIndex), which Eval builds on
// the first such query: like a mutation, Eval needs doc to itself.
func (ev *Evaluator) Eval(doc *xmldom.Document, q *Query) (*Result, error) {
	root := doc.Root()
	if root == nil {
		return nil, fmt.Errorf("query: document %q is empty", doc.Name())
	}
	if !docNameMatches(doc, q.Doc) {
		return nil, fmt.Errorf("query: query targets %q but document is %q (root %q)",
			q.Doc, doc.Name(), root.Name())
	}
	res := &Result{}
	for _, step := range q.Source {
		if step.Axis == AxisAttribute {
			// An attribute is not a binding candidate.
			return res, nil
		}
	}
	e := ev.evaluation()
	var (
		err  error
		seen = make(map[Item]bool)
		// selected backs every binding's PerBinding entry: each entry is
		// a capacity-capped window of it, so a binding costs no slice of
		// its own.
		selected []Item
	)
	bind := func(b *xmldom.Node) bool {
		var ok bool
		if ok, err = e.evalExpr(b, q.Where); err != nil || !ok {
			return err == nil
		}
		res.Bindings = append(res.Bindings, b)
		start := len(selected)
		for _, sel := range q.Selects {
			if err = checkPath(sel); err != nil {
				return false
			}
			e.walk(b, sel, func(it Item) bool {
				selected = append(selected, it)
				return true
			})
		}
		var items []Item
		if len(selected) > start {
			items = selected[start:len(selected):len(selected)]
		}
		res.PerBinding = append(res.PerBinding, items)
		for _, it := range items {
			if !seen[it] {
				seen[it] = true
				res.Items = append(res.Items, it)
			}
		}
		return true
	}
	if cands, visited, ok := e.indexed(doc, q); ok {
		res.Visited = visited
		for _, b := range cands {
			if !bind(b) {
				break
			}
		}
	} else {
		res.Visited = e.walk(root, q.Source, func(it Item) bool { return bind(it.Node) })
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func docNameMatches(doc *xmldom.Document, name string) bool {
	if doc.Root().Name() == name {
		return true
	}
	if doc.Name() == name || doc.Name() == name+".xml" {
		return true
	}
	return false
}

// EvalPath evaluates a relative path from ctx and returns the matched items.
// An empty path yields ctx itself.
func (ev *Evaluator) EvalPath(ctx *xmldom.Node, path Path) ([]Item, error) {
	if err := checkPath(path); err != nil {
		return nil, err
	}
	// An empty result is [] for a node path and nil for an attribute
	// path; callers have always seen these shapes.
	items := []Item{}
	if len(path) > 0 && path[len(path)-1].Axis == AxisAttribute {
		items = nil
	}
	e := ev.evaluation()
	e.walk(ctx, path, func(it Item) bool {
		items = append(items, it)
		return true
	})
	return items, nil
}

// checkPath rejects an attribute step anywhere but last.
func checkPath(path Path) error {
	for i, step := range path {
		if step.Axis == AxisAttribute && i != len(path)-1 {
			return fmt.Errorf("query: attribute step /@%s must be last", step.Name)
		}
	}
	return nil
}

// evaluation is the walk's view of an Evaluator's name sets. The walk asks
// whether each element it passes is hidden or transparent; it compares the
// name with the few configured ones instead of hashing it.
type evaluation struct {
	transparentNames, hiddenNames nameSet
}

// evaluation returns ev's name sets, collected at the first call and shared
// read-only by every later one. Calls racing on the first collect equal
// sets.
func (ev *Evaluator) evaluation() *evaluation {
	if e := ev.sets.Load(); e != nil {
		return e
	}
	e := &evaluation{transparentNames: listNames(ev.Transparent), hiddenNames: listNames(ev.Hidden)}
	ev.sets.Store(e)
	return e
}

// nameSet is a configured name set as a list. A name whose length no
// member has is rejected by a bit test, and otherwise compared with each
// member: the walk asks about every element it passes, and a comparison
// that fails at the length or the first differing byte is cheaper than
// hashing the whole name.
type nameSet struct {
	// lens has bit min(len(name), 63) set for each member.
	lens  uint64
	names []string
}

// listNames collects the names m maps to true.
func listNames(m map[string]bool) nameSet {
	var s nameSet
	for name, ok := range m {
		if ok {
			s.lens |= lenBit(name)
			s.names = append(s.names, name)
		}
	}
	return s
}

func lenBit(name string) uint64 { return 1 << min(len(name), 63) }

func (s *nameSet) has(name string) bool {
	if s.lens&lenBit(name) == 0 {
		return false
	}
	for _, member := range s.names {
		if member == name {
			return true
		}
	}
	return false
}

func (e *evaluation) transparent(name string) bool { return e.transparentNames.has(name) }

func (e *evaluation) hidden(name string) bool { return e.hiddenNames.has(name) }

// walk streams the items path reaches from ctx to emit until emit returns
// false. The order is that of evaluating the path one step at a time over
// the whole set of contexts, first occurrence kept: step i+1 runs on the
// nodes step i reached, in the order reached. Because each reached node is
// carried to the end of the path before the next one is reached, that order
// needs no intermediate node sets; only steps that can reach one node from
// two contexts (see repeats) remember what they have passed on. An
// attribute step must be last (checkPath). walk returns the number of
// elements it went through.
func (e *evaluation) walk(ctx *xmldom.Node, path Path, emit func(Item) bool) int {
	w := pathWalker{e: e, path: path}
	for i := range path {
		if e.repeats(path, i) {
			w.seen = make([]map[*xmldom.Node]bool, len(path))
			break
		}
	}
	w.from(0, ctx, emit)
	return w.visited
}

// repeats reports whether step i of path can reach one node from two of its
// contexts, which are the distinct nodes step i-1 reached.
func (e *evaluation) repeats(path Path, i int) bool {
	single := true // only parent steps so far: at most one context
	for _, step := range path[:i] {
		single = single && step.Axis == AxisParent
	}
	if single {
		return false
	}
	switch path[i].Axis {
	case AxisDescendant, AxisParent:
		return true
	case AxisChild:
		// A node is the logical child of two contexts only when one of
		// them is a transparent element inside the other. Parent steps
		// never yield transparent elements.
		prev := path[i-1]
		return prev.Axis != AxisParent && (prev.Name == "*" || e.transparent(prev.Name))
	}
	return false
}

// pathWalker is the state of one walk: the depth-first cursor over path,
// and for each step that repeats, the nodes it has already passed on.
//
// emit travels as a parameter rather than a field so that escape analysis
// keeps the variables its closure captures on the caller's stack.
type pathWalker struct {
	e       *evaluation
	path    Path
	seen    []map[*xmldom.Node]bool
	visited int // elements children and descendants went through
}

// from applies step i to ctx. It returns false once emit has asked to stop.
func (w *pathWalker) from(i int, ctx *xmldom.Node, emit func(Item) bool) bool {
	if i == len(w.path) {
		return emit(Item{Node: ctx})
	}
	step := w.path[i]
	switch step.Axis {
	case AxisChild:
		return w.children(i, ctx, emit)
	case AxisDescendant:
		return w.descendants(i, ctx, emit)
	case AxisParent:
		if p := w.e.logicalParent(ctx); p != nil {
			return w.reach(i, p, emit)
		}
	case AxisAttribute:
		if _, ok := ctx.Attr(step.Name); ok {
			return emit(Item{Node: ctx, Attr: step.Name})
		}
	}
	return true
}

// reach carries n, reached by step i, on through the rest of the path
// unless step i has passed n on before.
func (w *pathWalker) reach(i int, n *xmldom.Node, emit func(Item) bool) bool {
	if w.seen != nil && w.e.repeats(w.path, i) {
		if w.seen[i] == nil {
			w.seen[i] = make(map[*xmldom.Node]bool)
		}
		if w.seen[i][n] {
			return true
		}
		w.seen[i][n] = true
	}
	return w.from(i+1, n, emit)
}

// children reaches ctx's logical children that step i names: its element
// children outside hidden subtrees, where a transparent child stands both
// for itself (so axml:sc can be addressed directly) and, in place, for its
// own logical children.
func (w *pathWalker) children(i int, ctx *xmldom.Node, emit func(Item) bool) bool {
	name := w.path[i].Name
	for _, c := range ctx.Children() {
		if c.Kind() != xmldom.ElementNode {
			continue
		}
		w.visited++
		if w.e.hidden(c.Name()) {
			continue
		}
		if (name == "*" || c.Name() == name) && !w.reach(i, c, emit) {
			return false
		}
		if w.e.transparent(c.Name()) && !w.children(i, c, emit) {
			return false
		}
	}
	return true
}

// descendants reaches every element beneath ctx that step i names, in
// document order, skipping hidden subtrees.
func (w *pathWalker) descendants(i int, ctx *xmldom.Node, emit func(Item) bool) bool {
	name := w.path[i].Name
	for _, c := range ctx.Children() {
		if c.Kind() != xmldom.ElementNode {
			continue
		}
		w.visited++
		if w.e.hidden(c.Name()) {
			continue
		}
		if (name == "*" || c.Name() == name) && !w.reach(i, c, emit) {
			return false
		}
		if !w.descendants(i, c, emit) {
			return false
		}
	}
	return true
}

// logicalParent returns the nearest non-transparent ancestor element, so a
// node stored inside an <axml:sc> reports the embedding element as parent.
func (e *evaluation) logicalParent(n *xmldom.Node) *xmldom.Node {
	for p := n.Parent(); p != nil; p = p.Parent() {
		if !e.transparent(p.Name()) {
			return p
		}
	}
	return nil
}

func (e *evaluation) evalExpr(binding *xmldom.Node, expr Expr) (bool, error) {
	if expr == nil {
		return true, nil
	}
	switch x := expr.(type) {
	case *Compare:
		if err := checkPath(x.Path); err != nil {
			return false, err
		}
		// Existential semantics as in XPath general comparisons: the
		// predicate holds if any matched item satisfies it, so the walk
		// stops at the first witness. A != with no matches is false
		// (there is no witness).
		if x.Op != OpEq && x.Op != OpNeq {
			return false, nil
		}
		found := false
		e.walk(binding, x.Path, func(it Item) bool {
			found = it.equals(x.Literal) == (x.Op == OpEq)
			return !found
		})
		return found, nil
	case *And:
		l, err := e.evalExpr(binding, x.L)
		if err != nil || !l {
			return false, err
		}
		return e.evalExpr(binding, x.R)
	case *Or:
		l, err := e.evalExpr(binding, x.L)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return e.evalExpr(binding, x.R)
	default:
		return false, fmt.Errorf("query: unknown expression %T", expr)
	}
}

// equals reports whether the item's value (see Value) is lit.
func (it Item) equals(lit string) bool {
	if it.Attr != "" {
		v, _ := it.Node.Attr(it.Attr)
		return v == lit
	}
	return textEquals(it.Node, lit)
}

// textEquals reports whether n.TextContent() is lit without building the
// text.
func textEquals(n *xmldom.Node, lit string) bool {
	switch n.Kind() {
	case xmldom.TextNode:
		return n.Text() == lit
	case xmldom.CommentNode:
		return lit == ""
	}
	rest, ok := textPrefix(n, lit)
	return ok && rest == ""
}

// textPrefix matches the text beneath element n, in document order, against
// the start of lit and returns what is left of lit; ok is false at the first
// character that differs.
func textPrefix(n *xmldom.Node, lit string) (rest string, ok bool) {
	for _, c := range n.Children() {
		switch c.Kind() {
		case xmldom.TextNode:
			t := c.Text()
			if !strings.HasPrefix(lit, t) {
				return "", false
			}
			lit = lit[len(t):]
		case xmldom.ElementNode:
			if lit, ok = textPrefix(c, lit); !ok {
				return "", false
			}
		}
	}
	return lit, true
}
