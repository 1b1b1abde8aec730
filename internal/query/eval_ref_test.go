package query

import (
	"fmt"
	"math/rand"
	"testing"

	"axmltx/internal/xmldom"
)

// refEvaluator is the slice-per-step evaluator the streaming walker
// replaced, kept verbatim as the oracle TestEvalMatchesReference and
// FuzzEvalMatchesReference compare Evaluator against. It materialises
// every step's node set, deduplicates each one with a map and boxes every
// compared value to a string; it is simple enough to trust by reading.
type refEvaluator struct {
	Transparent map[string]bool
	Hidden      map[string]bool
}

func (ev *refEvaluator) Eval(doc *xmldom.Document, q *Query) (*Result, error) {
	root := doc.Root()
	if root == nil {
		return nil, fmt.Errorf("query: document %q is empty", doc.Name())
	}
	if !docNameMatches(doc, q.Doc) {
		return nil, fmt.Errorf("query: query targets %q but document is %q (root %q)",
			q.Doc, doc.Name(), root.Name())
	}
	candidates := ev.evalPathNodes(root, q.Source)
	res := &Result{}
	seen := make(map[Item]bool)
	for _, b := range candidates {
		ok, err := ev.evalExpr(b, q.Where)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		res.Bindings = append(res.Bindings, b)
		var items []Item
		for _, sel := range q.Selects {
			selItems, err := ev.EvalPath(b, sel)
			if err != nil {
				return nil, err
			}
			items = append(items, selItems...)
		}
		res.PerBinding = append(res.PerBinding, items)
		for _, it := range items {
			if !seen[it] {
				seen[it] = true
				res.Items = append(res.Items, it)
			}
		}
	}
	return res, nil
}

func (ev *refEvaluator) EvalPath(ctx *xmldom.Node, path Path) ([]Item, error) {
	nodes := []*xmldom.Node{ctx}
	for i, step := range path {
		if step.Axis == AxisAttribute {
			if i != len(path)-1 {
				return nil, fmt.Errorf("query: attribute step /@%s must be last", step.Name)
			}
			var items []Item
			for _, n := range nodes {
				if _, ok := n.Attr(step.Name); ok {
					items = append(items, Item{Node: n, Attr: step.Name})
				}
			}
			return items, nil
		}
		nodes = ev.stepNodes(nodes, step)
	}
	items := make([]Item, 0, len(nodes))
	for _, n := range nodes {
		items = append(items, Item{Node: n})
	}
	return items, nil
}

func (ev *refEvaluator) evalPathNodes(ctx *xmldom.Node, path Path) []*xmldom.Node {
	nodes := []*xmldom.Node{ctx}
	for _, step := range path {
		if step.Axis == AxisAttribute {
			return nil
		}
		nodes = ev.stepNodes(nodes, step)
	}
	return nodes
}

func (ev *refEvaluator) stepNodes(ctxs []*xmldom.Node, step Step) []*xmldom.Node {
	var out []*xmldom.Node
	seen := make(map[*xmldom.Node]bool)
	add := func(n *xmldom.Node) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, ctx := range ctxs {
		switch step.Axis {
		case AxisChild:
			for _, c := range ev.logicalChildren(ctx) {
				if nameMatches(c, step.Name) {
					add(c)
				}
			}
		case AxisDescendant:
			ev.walkVisible(ctx, func(n *xmldom.Node) {
				if n != ctx && nameMatches(n, step.Name) {
					add(n)
				}
			})
		case AxisParent:
			if p := ev.logicalParent(ctx); p != nil {
				add(p)
			}
		}
	}
	return out
}

func nameMatches(n *xmldom.Node, name string) bool {
	return n.Kind() == xmldom.ElementNode && (name == "*" || n.Name() == name)
}

func (ev *refEvaluator) logicalChildren(ctx *xmldom.Node) []*xmldom.Node {
	var out []*xmldom.Node
	for _, c := range ctx.Children() {
		if c.Kind() != xmldom.ElementNode {
			continue
		}
		if ev.Hidden[c.Name()] {
			continue
		}
		out = append(out, c)
		if ev.Transparent[c.Name()] {
			out = append(out, ev.logicalChildren(c)...)
		}
	}
	return out
}

func (ev *refEvaluator) logicalParent(n *xmldom.Node) *xmldom.Node {
	for p := n.Parent(); p != nil; p = p.Parent() {
		if !ev.Transparent[p.Name()] {
			return p
		}
	}
	return nil
}

func (ev *refEvaluator) walkVisible(ctx *xmldom.Node, fn func(*xmldom.Node)) {
	ctx.Walk(func(n *xmldom.Node) bool {
		if n.Kind() != xmldom.ElementNode {
			return false
		}
		if n != ctx && ev.Hidden[n.Name()] {
			return false
		}
		fn(n)
		return true
	})
}

func (ev *refEvaluator) evalExpr(binding *xmldom.Node, e Expr) (bool, error) {
	if e == nil {
		return true, nil
	}
	switch x := e.(type) {
	case *Compare:
		items, err := ev.EvalPath(binding, x.Path)
		if err != nil {
			return false, err
		}
		for _, it := range items {
			v := it.Value()
			if x.Op == OpEq && v == x.Literal {
				return true, nil
			}
			if x.Op == OpNeq && v != x.Literal {
				return true, nil
			}
		}
		return false, nil
	case *And:
		l, err := ev.evalExpr(binding, x.L)
		if err != nil || !l {
			return false, err
		}
		return ev.evalExpr(binding, x.R)
	case *Or:
		l, err := ev.evalExpr(binding, x.L)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return ev.evalExpr(binding, x.R)
	default:
		return false, fmt.Errorf("query: unknown expression %T", e)
	}
}

// evalChooser is the source of a generated case's choices: a seeded
// math/rand source in TestEvalMatchesReference, the fuzzer's bytes in
// FuzzEvalMatchesReference (0 once they run out).
type evalChooser interface{ intn(n int) int }

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

type byteChooser struct{ b []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

// Element names are few so that steps match often: nested same-name
// elements, axml:sc inside axml:sc and hidden axml:params all come up.
var (
	genNames = []string{"a", "b", "p", "axml:sc", "axml:params"}
	genTexts = []string{"1", "2", "12", ""}
)

// genDoc builds a random document named D.xml whose root element may carry
// any generated name, so queries address it by repository name.
func genDoc(c evalChooser) *xmldom.Document {
	doc := xmldom.NewDocument("D.xml")
	root := genElement(c, doc, 0)
	if err := doc.SetRoot(root); err != nil {
		panic(err)
	}
	return doc
}

func genElement(c evalChooser, doc *xmldom.Document, depth int) *xmldom.Node {
	el := doc.CreateElement(genNames[c.intn(len(genNames))])
	for i, n := 0, c.intn(3); i < n; i++ {
		el.SetAttr([]string{"k", "r"}[c.intn(2)], genTexts[c.intn(len(genTexts))])
	}
	if depth >= 4 {
		return el
	}
	for i, n := 0, c.intn(5); i < n; i++ {
		var child *xmldom.Node
		switch c.intn(6) {
		case 0:
			child = doc.CreateText(genTexts[c.intn(len(genTexts))])
		case 1:
			child = doc.CreateComment("c")
		default:
			child = genElement(c, doc, depth+1)
		}
		if err := doc.AppendChild(el, child); err != nil {
			panic(err)
		}
	}
	return el
}

func genPath(c evalChooser, maxLen int) Path {
	var p Path
	for i, n := 0, c.intn(maxLen+1); i < n; i++ {
		name := append([]string{"*"}, genNames...)[c.intn(len(genNames)+1)]
		switch c.intn(8) {
		case 0, 1, 2:
			p = append(p, Step{Axis: AxisChild, Name: name})
		case 3, 4:
			p = append(p, Step{Axis: AxisDescendant, Name: name})
		case 5:
			p = append(p, Step{Axis: AxisParent})
		case 6:
			// Usually last; occasionally in the middle, which is an
			// error the two evaluators must report alike.
			p = append(p, Step{Axis: AxisAttribute, Name: []string{"k", "r"}[c.intn(2)]})
			if c.intn(4) != 0 {
				return p
			}
		default:
			p = append(p, Step{Axis: AxisChild, Name: "a"})
		}
	}
	return p
}

func genExpr(c evalChooser, depth int) Expr {
	switch k := c.intn(5); {
	case depth < 2 && k == 0:
		return &And{L: genExpr(c, depth+1), R: genExpr(c, depth+1)}
	case depth < 2 && k == 1:
		return &Or{L: genExpr(c, depth+1), R: genExpr(c, depth+1)}
	default:
		op := OpEq
		if c.intn(3) == 0 {
			op = OpNeq
		}
		return &Compare{Path: genPath(c, 3), Op: op, Literal: genTexts[c.intn(len(genTexts))]}
	}
}

func genQuery(c evalChooser) *Query {
	q := &Query{Var: "v", Doc: "D", Source: genPath(c, 3)}
	for i, n := 0, c.intn(3); i < n; i++ {
		q.Selects = append(q.Selects, genPath(c, 3))
	}
	if c.intn(4) != 0 {
		q.Where = genExpr(c, 0)
	}
	return q
}

var genEvaluators = []struct {
	name              string
	transparent, hide []string
}{
	{"axml", []string{"axml:sc"}, []string{"axml:params"}},
	{"plain", nil, nil},
	{"two-transparent", []string{"axml:sc", "b"}, []string{"axml:params"}},
}

// checkEvalMatchesReference draws one document and query from c and fails
// t unless Evaluator and refEvaluator agree on Eval, and on EvalPath of
// every select path from the root, under each evaluator configuration.
func checkEvalMatchesReference(t *testing.T, c evalChooser) {
	t.Helper()
	doc := genDoc(c)
	q := genQuery(c)
	for _, cfg := range genEvaluators {
		ev := &Evaluator{Transparent: map[string]bool{}, Hidden: map[string]bool{}}
		for _, n := range cfg.transparent {
			ev.Transparent[n] = true
		}
		for _, n := range cfg.hide {
			ev.Hidden[n] = true
		}
		ref := &refEvaluator{Transparent: ev.Transparent, Hidden: ev.Hidden}
		where := func() string {
			return fmt.Sprintf("%s evaluator, query %s, document %s", cfg.name, q, xmldom.MarshalString(doc.Root()))
		}
		got, err := ev.Eval(doc, q)
		want, wantErr := ref.Eval(doc, q)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", where(), err, wantErr)
		}
		if err == nil {
			if !sameNodes(got.Bindings, want.Bindings) {
				t.Fatalf("%s: bindings %v, reference %v", where(), got.Bindings, want.Bindings)
			}
			if len(got.PerBinding) != len(want.PerBinding) || (got.PerBinding == nil) != (want.PerBinding == nil) {
				t.Fatalf("%s: %d per-binding rows, reference %d", where(), len(got.PerBinding), len(want.PerBinding))
			}
			for i := range got.PerBinding {
				if !sameItems(got.PerBinding[i], want.PerBinding[i]) {
					t.Fatalf("%s: row %d %v, reference %v", where(), i, got.PerBinding[i], want.PerBinding[i])
				}
			}
			if !sameItems(got.Items, want.Items) {
				t.Fatalf("%s: items %v, reference %v", where(), got.Items, want.Items)
			}
		}
		for _, sel := range q.Selects {
			got, err := ev.EvalPath(doc.Root(), sel)
			want, wantErr := ref.EvalPath(doc.Root(), sel)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameItems(got, want) {
				t.Fatalf("%s: EvalPath(%s) = %v, %v; reference %v, %v", where(), sel, got, err, want, wantErr)
			}
		}
	}
}

// sameNodes and sameItems compare by node identity, order and nil-ness:
// reflect.DeepEqual would accept two structurally equal but distinct nodes.
func sameNodes(a, b []*xmldom.Node) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameItems(a, b []Item) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvalMatchesReference(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	for seed := int64(0); seed < int64(n); seed++ {
		checkEvalMatchesReference(t, randChooser{rand.New(rand.NewSource(seed))})
	}
}

func FuzzEvalMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEvalMatchesReference(t, &byteChooser{b: data})
	})
}
