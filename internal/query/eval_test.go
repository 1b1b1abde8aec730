package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"axmltx/internal/xmldom"
)

// atpDoc is the paper's ATPList.xml (Section 3.1 listing), with the
// getPoints and getGrandSlamsWonbyYear embedded calls and their previous
// results stored inside the <axml:sc> elements.
const atpDoc = `<ATPList date="18042005">
  <player rank="1">
    <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
    <citizenship>Swiss</citizenship>
    <axml:sc mode="replace" serviceNameSpace="getPoints" methodName="getPoints">
      <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
      <points>475</points>
    </axml:sc>
    <axml:sc mode="merge" serviceNameSpace="getGrandSlamsWonbyYear" methodName="getGrandSlamsWonbyYear">
      <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
      <grandslamswon year="2003">A, W</grandslamswon>
      <grandslamswon year="2004">A, U</grandslamswon>
    </axml:sc>
  </player>
  <player rank="2">
    <name><firstname>Rafael</firstname><lastname>Nadal</lastname></name>
    <citizenship>Spanish</citizenship>
  </player>
</ATPList>`

func axmlEvaluator() *Evaluator {
	return &Evaluator{
		Transparent: map[string]bool{"axml:sc": true},
		Hidden:      map[string]bool{"axml:params": true},
	}
}

func mustEval(t *testing.T, ev *Evaluator, doc *xmldom.Document, src string) *Result {
	t.Helper()
	res, err := ev.Eval(doc, MustParse(CleanSource(src)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEvalPaperDeleteLocation(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"Swiss"}) {
		t.Fatalf("result = %v", got)
	}
	if len(res.Bindings) != 1 {
		t.Fatalf("bindings = %d", len(res.Bindings))
	}
}

func TestEvalWhereFiltersBindings(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"Spanish"}) {
		t.Fatalf("result = %v", got)
	}
}

func TestEvalNoWhereMatchesAll(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc, `Select p/citizenship from p in ATPList//player`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"Swiss", "Spanish"}) {
		t.Fatalf("result = %v", got)
	}
}

func TestEvalTransparencySeesServiceCallResults(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	// p/points lives inside <axml:sc>, which is transparent.
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/points from p in ATPList//player where p/name/lastname = Federer`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"475"}) {
		t.Fatalf("result = %v", got)
	}
	// Without transparency the same query finds nothing on the child axis.
	plain := &Evaluator{}
	res2 := mustEval(t, plain, doc,
		`Select p/points from p in ATPList//player where p/name/lastname = Federer`)
	if len(res2.Items) != 0 {
		t.Fatalf("plain evaluator found %v", res2.Strings())
	}
}

func TestEvalHiddenParamsInvisible(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	// axml:value "Roger Federer" sits under axml:params and must not match
	// even on the descendant axis.
	res := mustEval(t, axmlEvaluator(), doc, `Select p//value from p in ATPList//player`)
	if len(res.Items) != 0 {
		t.Fatalf("hidden nodes matched: %v", res.Strings())
	}
	res2 := mustEval(t, axmlEvaluator(), doc, `Select x from x in ATPList//axml:value`)
	if len(res2.Items) != 0 {
		t.Fatalf("hidden nodes matched by prefixed name: %v", res2.Strings())
	}
}

func TestEvalServiceCallAddressable(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc, `Select s from s in ATPList//axml:sc`)
	if len(res.Items) != 2 {
		t.Fatalf("axml:sc count = %d", len(res.Items))
	}
}

func TestEvalMergeModeMultipleResults(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/grandslamswon from p in ATPList//player where p/name/lastname = Federer`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"A, W", "A, U"}) {
		t.Fatalf("result = %v", got)
	}
}

func TestEvalParentStep(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/citizenship/.. from p in ATPList//player where p/name/lastname = Federer`)
	if len(res.Items) != 1 || res.Items[0].Node.Name() != "player" {
		t.Fatalf("parent step result = %v", res.Items)
	}
}

func TestEvalLogicalParentSkipsTransparent(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	// points/.. must yield the player, not the axml:sc wrapper.
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/points/.. from p in ATPList//player where p/name/lastname = Federer`)
	if len(res.Items) != 1 || res.Items[0].Node.Name() != "player" {
		t.Fatalf("logical parent = %v", res.Items)
	}
}

func TestEvalAttributeStep(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc, `Select p/@rank from p in ATPList//player`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("ranks = %v", got)
	}
}

func TestEvalAttributePredicate(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/citizenship from p in ATPList//player where p/@rank = 2`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"Spanish"}) {
		t.Fatalf("result = %v", got)
	}
}

func TestEvalBooleanPredicates(t *testing.T) {
	doc := xmldom.MustParse("ATPList.xml", atpDoc)
	res := mustEval(t, axmlEvaluator(), doc,
		`Select p/name/lastname from p in ATPList//player where p/citizenship = Swiss or p/citizenship = Spanish`)
	if len(res.Items) != 2 {
		t.Fatalf("or result = %v", res.Strings())
	}
	res2 := mustEval(t, axmlEvaluator(), doc,
		`Select p/name/lastname from p in ATPList//player where p/citizenship = Swiss and p/@rank = 1`)
	if got := res2.Strings(); !reflect.DeepEqual(got, []string{"Federer"}) {
		t.Fatalf("and result = %v", got)
	}
	res3 := mustEval(t, axmlEvaluator(), doc,
		`Select p/name/lastname from p in ATPList//player where p/citizenship != Swiss`)
	if got := res3.Strings(); !reflect.DeepEqual(got, []string{"Nadal"}) {
		t.Fatalf("neq result = %v", got)
	}
}

func TestEvalNeqNoWitnessIsFalse(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D><x/></D>`)
	res := mustEval(t, &Evaluator{}, doc, `Select x from x in D//x where x/missing != anything`)
	if len(res.Bindings) != 0 {
		t.Fatal("!= with no matched path nodes must be false")
	}
}

func TestEvalDescendantAxis(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D><a><b><c>1</c></b></a><c>2</c></D>`)
	res := mustEval(t, &Evaluator{}, doc, `Select x from x in D//c`)
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("descendants = %v", got)
	}
}

func TestEvalWildcard(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D><a>1</a><b>2</b></D>`)
	res := mustEval(t, &Evaluator{}, doc, `Select x/* from x in D`)
	if len(res.Items) != 2 {
		t.Fatalf("wildcard = %v", res.Strings())
	}
}

func TestEvalDocNameMismatch(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D/>`)
	if _, err := (&Evaluator{}).Eval(doc, MustParse(`Select x from x in Other//y`)); err == nil {
		t.Fatal("expected doc name mismatch error")
	}
}

func TestEvalDocNameByRepositoryName(t *testing.T) {
	doc := xmldom.MustParse("Catalog.xml", `<root><item/></root>`)
	// Query addresses the repository name, root element differs.
	res := mustEval(t, &Evaluator{}, doc, `Select x from x in Catalog//item`)
	if len(res.Items) != 1 {
		t.Fatal("repository-name addressing failed")
	}
}

func TestEvalEmptyDocument(t *testing.T) {
	doc := xmldom.NewDocument("E.xml")
	if _, err := (&Evaluator{}).Eval(doc, MustParse(`Select x from x in E//y`)); err == nil {
		t.Fatal("expected error on empty document")
	}
}

func TestEvalDeduplicatesItems(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D><a><b>x</b></a></D>`)
	res := mustEval(t, &Evaluator{}, doc, `Select x/b, x//b from x in D/a`)
	if len(res.Items) != 1 {
		t.Fatalf("dedup failed: %v", res.Strings())
	}
	if len(res.PerBinding[0]) != 2 {
		t.Fatalf("per-binding should keep both selections: %d", len(res.PerBinding[0]))
	}
}

func TestEvalPathAttributeMustBeLast(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D><a k="v"><b/></a></D>`)
	ev := &Evaluator{}
	if _, err := ev.EvalPath(doc.Root(), Path{{Axis: AxisAttribute, Name: "k"}, {Axis: AxisChild, Name: "b"}}); err == nil {
		t.Fatal("attribute step in the middle must error")
	}
}

// playersDoc is the benchmark's ATPList shape: per player a rank, a name,
// one of 50 citizenships and a points element.
func playersDoc(players int) *xmldom.Document {
	var b strings.Builder
	b.WriteString(`<ATP date="18042005">`)
	for i := 0; i < players; i++ {
		fmt.Fprintf(&b, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name>`+
			`<citizenship>C%d</citizenship><points>%d</points></player>`, i+1, i, i, i%50, 100+i)
	}
	b.WriteString(`</ATP>`)
	return xmldom.MustParse("ATP.xml", b.String())
}

// TestEvalAllocsIndependentOfNonMatches pins the streaming evaluator's
// allocation profile: a candidate that fails the where clause costs no
// allocation, and a matching row costs a few amortised appends.
func TestEvalAllocsIndependentOfNonMatches(t *testing.T) {
	ev := axmlEvaluator()
	allocs := func(doc *xmldom.Document, src string, rows int) float64 {
		q := MustParse(src)
		return testing.AllocsPerRun(20, func() {
			res, err := ev.Eval(doc, q)
			if err != nil || len(res.Bindings) != rows {
				t.Fatalf("%s: %d rows, %v; want %d", src, len(res.Bindings), err, rows)
			}
		})
	}
	const oneRow = `Select p/points from p in ATP//player where p/name/lastname = L7`
	small, large := allocs(playersDoc(50), oneRow, 1), allocs(playersDoc(5000), oneRow, 1)
	t.Logf("one-row query: %v allocs at 50 players, %v at 5000", small, large)
	if small != large || large > 64 {
		t.Errorf("one-row query: %v allocs at 50 players, %v at 5000; want equal and <= 64", small, large)
	}
	const read = `Select p/name/lastname, p/points from p in ATP//player where p/citizenship = C7`
	got := allocs(playersDoc(5000), read, 100)
	t.Logf("100-row read query: %v allocs", got)
	if got > 25*100 {
		t.Errorf("100-row read query: %v allocs, want <= %d", got, 25*100)
	}
}
