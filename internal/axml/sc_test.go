package axml

import (
	"testing"
	"time"

	"axmltx/internal/xmldom"
)

const scDoc = `<ATPList date="18042005">
  <player rank="1">
    <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
    <citizenship>Swiss</citizenship>
    <axml:sc mode="replace" serviceNameSpace="getPoints" serviceURL="AP2" methodName="getPoints">
      <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
      <points>475</points>
    </axml:sc>
    <axml:sc mode="merge" serviceNameSpace="getGrandSlamsWonbyYear" methodName="getGrandSlamsWonbyYear" frequency="30s">
      <axml:params>
        <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
        <axml:param name="year"><axml:value>2005</axml:value></axml:param>
      </axml:params>
      <axml:catch faultName="A" faultVariable="fa"><axml:retry times="3" wait="10ms"/></axml:catch>
      <axml:catchAll/>
      <grandslamswon year="2003">A, W</grandslamswon>
      <grandslamswon year="2004">A, U</grandslamswon>
    </axml:sc>
  </player>
</ATPList>`

func parseSCDoc(t *testing.T) (*xmldom.Document, *ServiceCall, *ServiceCall) {
	t.Helper()
	doc := xmldom.MustParse("ATPList.xml", scDoc)
	calls := ServiceCalls(doc)
	if len(calls) != 2 {
		t.Fatalf("service calls = %d", len(calls))
	}
	return doc, calls[0], calls[1]
}

func TestServiceCallAttributes(t *testing.T) {
	_, points, slams := parseSCDoc(t)
	if points.Service() != "getPoints" || points.Mode() != ModeReplace || points.URL() != "AP2" {
		t.Fatalf("points call = %s", points.Describe())
	}
	if slams.Service() != "getGrandSlamsWonbyYear" || slams.Mode() != ModeMerge {
		t.Fatalf("slams call = %s", slams.Describe())
	}
	if _, ok := points.Frequency(); ok {
		t.Fatal("points has no frequency")
	}
	if d, ok := slams.Frequency(); !ok || d != 30*time.Second {
		t.Fatalf("slams frequency = %v, %v", d, ok)
	}
}

func TestServiceCallParams(t *testing.T) {
	_, points, slams := parseSCDoc(t)
	p := points.Params()
	if len(p) != 1 || p[0].Name != "name" || p[0].Value != "Roger Federer" {
		t.Fatalf("points params = %+v", p)
	}
	sp := slams.Params()
	if len(sp) != 2 || sp[1].Name != "year" || sp[1].Value != "2005" {
		t.Fatalf("slams params = %+v", sp)
	}
}

func TestServiceCallResults(t *testing.T) {
	_, points, slams := parseSCDoc(t)
	if rs := points.Results(); len(rs) != 1 || rs[0].Name() != "points" {
		t.Fatalf("points results = %v", rs)
	}
	if rs := slams.Results(); len(rs) != 2 {
		t.Fatalf("slams results = %v", rs)
	}
	if names := slams.ResultNames(); len(names) != 1 || names[0] != "grandslamswon" {
		t.Fatalf("result names = %v", names)
	}
}

func TestServiceCallHandlers(t *testing.T) {
	_, points, slams := parseSCDoc(t)
	if hs := points.Handlers(); len(hs) != 0 {
		t.Fatalf("points handlers = %v", hs)
	}
	hs := slams.Handlers()
	if len(hs) != 2 {
		t.Fatalf("slams handlers = %v", hs)
	}
	if hs[0].FaultName != "A" || hs[0].Retry == nil || hs[0].Retry.Times != 3 || hs[0].Retry.Wait != 10*time.Millisecond {
		t.Fatalf("catch A = %+v", hs[0])
	}
	if hs[1].FaultName != "" {
		t.Fatal("second handler should be catchAll")
	}

	if h, ok := slams.HandlerFor("A"); !ok || h.FaultName != "A" {
		t.Fatal("HandlerFor(A)")
	}
	if h, ok := slams.HandlerFor("unknown"); !ok || h.FaultName != "" {
		t.Fatalf("HandlerFor(unknown) = %+v, %v (want catchAll)", h, ok)
	}
	if _, ok := points.HandlerFor("A"); ok {
		t.Fatal("points has no handlers")
	}
}

func TestNestedParamServiceCall(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D>
	  <axml:sc methodName="outer" mode="replace">
	    <axml:params>
	      <axml:param name="p">
	        <axml:value><axml:sc methodName="inner" mode="replace"/></axml:value>
	      </axml:param>
	    </axml:params>
	  </axml:sc>
	</D>`)
	top := TopLevelServiceCalls(doc)
	if len(top) != 1 || top[0].Service() != "outer" {
		t.Fatalf("top-level calls = %v", top)
	}
	all := ServiceCalls(doc)
	if len(all) != 2 {
		t.Fatalf("all calls = %d", len(all))
	}
	params := top[0].Params()
	if len(params) != 1 || params[0].Nested == nil || params[0].Nested.Service() != "inner" {
		t.Fatalf("params = %+v", params)
	}
}

// TestTopLevelServiceCallsMatchesFilter checks the pruned walk against the
// definition it implements: every call, minus those with an ancestor that
// is a parameter list or a fault handler.
func TestTopLevelServiceCallsMatchesFilter(t *testing.T) {
	filter := func(doc *xmldom.Document) []*ServiceCall {
		var out []*ServiceCall
	calls:
		for _, sc := range ServiceCalls(doc) {
			for p := sc.Node().Parent(); p != nil; p = p.Parent() {
				switch p.Name() {
				case ElemParams, ElemCatch, ElemCatchAll, ElemRetry:
					continue calls
				}
			}
			out = append(out, sc)
		}
		return out
	}
	for name, src := range map[string]string{
		"paper": scDoc,
		"nested in params": `<D><axml:sc methodName="outer"><axml:params><axml:param name="p">` +
			`<axml:value><axml:sc methodName="inner"/></axml:value></axml:param></axml:params></axml:sc></D>`,
		"in handlers": `<D><axml:sc methodName="a"><axml:catch faultName="F"><axml:sc methodName="h1"/></axml:catch>` +
			`<axml:catchAll><axml:retry times="1"><axml:sc methodName="alt"/></axml:retry></axml:catchAll></axml:sc></D>`,
		"in results": `<D><axml:sc methodName="a"><r><axml:sc methodName="b"><axml:sc methodName="c"/></axml:sc></r></axml:sc>` +
			`<x>text<!--c--><axml:sc methodName="d"/></x></D>`,
		"root call": `<axml:sc methodName="root"><axml:params><axml:sc methodName="p"/></axml:params><axml:sc methodName="r"/></axml:sc>`,
		"none":      `<D><x/></D>`,
	} {
		doc := xmldom.MustParse("D.xml", src)
		got, want := TopLevelServiceCalls(doc), filter(doc)
		if len(got) != len(want) {
			t.Fatalf("%s: %d top-level calls, filter %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Node() != want[i].Node() {
				t.Fatalf("%s: call %d is %s, filter %s", name, i, got[i].Describe(), want[i].Describe())
			}
		}
	}
}

func TestNewServiceCall(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D/>`)
	sc := NewServiceCall(doc, "getPoints", ModeMerge, map[string]string{"b": "2", "a": "1"})
	if sc.Service() != "getPoints" || sc.Mode() != ModeMerge {
		t.Fatalf("built call = %s", sc.Describe())
	}
	params := sc.Params()
	if len(params) != 2 || params[0].Name != "a" || params[1].Name != "b" {
		t.Fatalf("params not sorted deterministically: %+v", params)
	}
	if err := doc.AppendChild(doc.Root(), sc.Node()); err != nil {
		t.Fatal(err)
	}
	// Round trip through serialization.
	re := xmldom.MustParse("D.xml", xmldom.MarshalString(doc.Root()))
	calls := ServiceCalls(re)
	if len(calls) != 1 || calls[0].Service() != "getPoints" {
		t.Fatal("round trip lost the call")
	}
}

func TestParseModeAndBadFrequency(t *testing.T) {
	if ParseMode("MERGE") != ModeMerge || ParseMode("replace") != ModeReplace || ParseMode("junk") != ModeReplace {
		t.Fatal("ParseMode")
	}
	doc := xmldom.MustParse("D.xml", `<D><axml:sc methodName="x" frequency="garbage"/></D>`)
	sc := ServiceCalls(doc)[0]
	if _, ok := sc.Frequency(); ok {
		t.Fatal("garbage frequency accepted")
	}
}

func TestAsServiceCallRejectsOthers(t *testing.T) {
	doc := xmldom.MustParse("D.xml", `<D><x/></D>`)
	if _, ok := AsServiceCall(doc.Root().FirstElement("x")); ok {
		t.Fatal("non-sc wrapped")
	}
	if _, ok := AsServiceCall(nil); ok {
		t.Fatal("nil wrapped")
	}
}
