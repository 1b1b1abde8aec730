package axml

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// fakeMaterializer implements Materializer from a static table and records
// which services were invoked.
type fakeMaterializer struct {
	results     map[string][]string // service -> result fragments
	resultNames map[string]string   // service -> declared result element name
	invoked     []string
	params      map[string][]Param
	fail        map[string]error
}

func newFakeMaterializer() *fakeMaterializer {
	return &fakeMaterializer{
		results:     make(map[string][]string),
		resultNames: make(map[string]string),
		params:      make(map[string][]Param),
		fail:        make(map[string]error),
	}
}

func (f *fakeMaterializer) Invoke(txn string, calls []*ServiceCall, params [][]Param) []InvokeOutcome {
	return InvokeEach(calls, params, f.invoke)
}

func (f *fakeMaterializer) invoke(call *ServiceCall, params []Param) ([]string, error) {
	f.invoked = append(f.invoked, call.Service())
	f.params[call.Service()] = params
	if err := f.fail[call.Service()]; err != nil {
		return nil, err
	}
	res, ok := f.results[call.Service()]
	if !ok {
		return nil, fmt.Errorf("no such service %q", call.Service())
	}
	return res, nil
}

func (f *fakeMaterializer) ResultName(service string) string { return f.resultNames[service] }

func newTestStore(t *testing.T) (*Store, *wal.MemoryLog) {
	t.Helper()
	log := wal.NewMemory()
	s := NewStore(log)
	if _, err := s.AddParsed("ATPList.xml", atpListXML); err != nil {
		t.Fatal(err)
	}
	return s, log
}

// atpListXML is the paper's §3.1 document.
const atpListXML = `<ATPList date="18042005">
  <player rank="1">
    <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
    <citizenship>Swiss</citizenship>
    <axml:sc mode="replace" serviceNameSpace="getPoints" methodName="getPoints">
      <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
      <points>475</points>
    </axml:sc>
    <axml:sc mode="merge" serviceNameSpace="getGrandSlamsWonbyYear" methodName="getGrandSlamsWonbyYear">
      <axml:params>
        <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
        <axml:param name="year"><axml:value>2005</axml:value></axml:param>
      </axml:params>
      <grandslamswon year="2003">A, W</grandslamswon>
      <grandslamswon year="2004">A, U</grandslamswon>
    </axml:sc>
  </player>
  <player rank="2">
    <name><firstname>Rafael</firstname><lastname>Nadal</lastname></name>
    <citizenship>Spanish</citizenship>
  </player>
</ATPList>`

func mustParseQ(s string) *Action {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return NewQuery(q)
}

func TestStoreLookupByVariants(t *testing.T) {
	s, _ := newTestStore(t)
	for _, name := range []string{"ATPList.xml", "ATPList"} {
		if _, ok := s.Get(name); !ok {
			t.Errorf("Get(%q) failed", name)
		}
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "ATPList.xml" {
		t.Errorf("Names() = %v", names)
	}
}

func TestApplyDeletePaperExample(t *testing.T) {
	s, log := newTestStore(t)
	// §3.1: delete Federer's citizenship.
	loc, err := ParseQuery(`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply("T1", NewDelete(loc), nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeletedXML) != 1 || res.DeletedXML[0] != "<citizenship>Swiss</citizenship>" {
		t.Fatalf("deleted = %v", res.DeletedXML)
	}
	// The delete is logged with its before-image and position so
	// compensation can be constructed later.
	recs := log.TxnRecords("T1")
	if len(recs) != 1 || recs[0].Type != wal.TypeDelete {
		t.Fatalf("records = %v", recs)
	}
	if recs[0].XML != "<citizenship>Swiss</citizenship>" || recs[0].ParentID == 0 {
		t.Fatalf("delete record = %+v", recs[0])
	}
	// The document no longer has the node.
	check := mustParseQ(`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`)
	qres, err := s.Apply("T1", check, nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(qres.Query.Items) != 0 {
		t.Fatal("citizenship still present after delete")
	}
}

func TestApplyInsertReturnsIDs(t *testing.T) {
	s, log := newTestStore(t)
	loc, _ := ParseQuery(`Select p from p in ATPList//player where p/name/lastname = Nadal`)
	res, err := s.Apply("T1", NewInsert(loc, `<points>5000</points>`), nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InsertedIDs) != 1 {
		t.Fatalf("inserted IDs = %v", res.InsertedIDs)
	}
	doc, _ := s.Get("ATPList.xml")
	n := doc.ByID(res.InsertedIDs[0])
	if n == nil || n.Name() != "points" || n.TextContent() != "5000" {
		t.Fatalf("inserted node = %v", n)
	}
	recs := log.TxnRecords("T1")
	if len(recs) != 1 || recs[0].Type != wal.TypeInsert || recs[0].NodeID != uint64(res.InsertedIDs[0]) {
		t.Fatalf("insert record = %+v", recs)
	}
}

func TestApplyReplaceDecomposesToDeletePlusInsert(t *testing.T) {
	s, log := newTestStore(t)
	// §3.1 replace example: change Nadal's citizenship.
	loc, _ := ParseQuery(`Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal`)
	res, err := s.Apply("T1", NewReplace(loc, `<citizenship>USA</citizenship>`), nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeletedXML) != 1 || len(res.InsertedIDs) != 1 {
		t.Fatalf("res = %+v", res)
	}
	recs := log.TxnRecords("T1")
	if len(recs) != 2 || recs[0].Type != wal.TypeDelete || recs[1].Type != wal.TypeInsert {
		t.Fatalf("records = %v", recs)
	}
	// Replacement is at the same position as the original.
	if recs[0].Pos != recs[1].Pos || recs[0].ParentID != recs[1].ParentID {
		t.Fatalf("replace moved the node: %+v vs %+v", recs[0], recs[1])
	}
	qres, _ := s.Apply("T1", mustParseQ(`Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal`), nil, Lazy)
	if got := qres.Query.Strings(); !reflect.DeepEqual(got, []string{"USA"}) {
		t.Fatalf("after replace = %v", got)
	}
}

func TestQueryAMaterializesOnlyGrandSlams(t *testing.T) {
	s, _ := newTestStore(t)
	mat := newFakeMaterializer()
	mat.results["getGrandSlamsWonbyYear"] = []string{`<grandslamswon year="2005">A, F</grandslamswon>`}
	mat.results["getPoints"] = []string{`<points>890</points>`}

	// Paper Query A: citizenship + grandslamswon → only the slams call is
	// materialized, not getPoints.
	res, err := s.Apply("TA", mustParseQ(
		`Select p/citizenship, p/grandslamswon from p in ATPList//player where p/name/lastname = Federer`), mat, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat.invoked, []string{"getGrandSlamsWonbyYear"}) {
		t.Fatalf("invoked = %v", mat.invoked)
	}
	// Merge mode: 2005 result appended after 2003 and 2004.
	got := res.Query.Strings()
	want := []string{"Swiss", "A, W", "A, U", "A, F"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query A result = %v, want %v", got, want)
	}
	// Parameters were resolved from the document.
	params := mat.params["getGrandSlamsWonbyYear"]
	if len(params) != 2 || params[0].Value != "Roger Federer" {
		t.Fatalf("params = %+v", params)
	}
}

func TestQueryBMaterializesOnlyPoints(t *testing.T) {
	s, log := newTestStore(t)
	mat := newFakeMaterializer()
	mat.results["getPoints"] = []string{`<points>890</points>`}
	mat.results["getGrandSlamsWonbyYear"] = []string{`<grandslamswon year="2005">A, F</grandslamswon>`}

	// Paper Query B: citizenship + points → only getPoints materialized.
	res, err := s.Apply("TB", mustParseQ(
		`Select p/citizenship, p/points from p in ATPList//player where p/name/lastname = Federer`), mat, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat.invoked, []string{"getPoints"}) {
		t.Fatalf("invoked = %v", mat.invoked)
	}
	// Replace mode: 475 replaced by 890.
	got := res.Query.Strings()
	want := []string{"Swiss", "890"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query B result = %v, want %v", got, want)
	}
	// Replace-mode materialization logs delete(old result) + insert(new).
	var types []wal.Type
	for _, r := range log.TxnRecords("TB") {
		types = append(types, r.Type)
	}
	want2 := []wal.Type{wal.TypeMaterialize, wal.TypeDelete, wal.TypeInsert}
	if !reflect.DeepEqual(types, want2) {
		t.Fatalf("log types = %v, want %v", types, want2)
	}
}

func TestEagerMaterializesEverything(t *testing.T) {
	s, _ := newTestStore(t)
	mat := newFakeMaterializer()
	mat.results["getPoints"] = []string{`<points>890</points>`}
	mat.results["getGrandSlamsWonbyYear"] = []string{`<grandslamswon year="2005">A, F</grandslamswon>`}
	_, err := s.Apply("TE", mustParseQ(
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`), mat, Eager)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.invoked) != 2 {
		t.Fatalf("eager invoked = %v", mat.invoked)
	}
}

func TestLazyUsesDeclaredResultNameWhenNoPriorResults(t *testing.T) {
	log := wal.NewMemory()
	s := NewStore(log)
	if _, err := s.AddParsed("D.xml", `<D><item><axml:sc methodName="fetch" mode="replace"/></item></D>`); err != nil {
		t.Fatal(err)
	}
	mat := newFakeMaterializer()
	mat.results["fetch"] = []string{`<price>10</price>`}
	mat.resultNames["fetch"] = "price"

	res, err := s.Apply("T", mustParseQ(`Select i/price from i in D//item`), mat, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat.invoked, []string{"fetch"}) {
		t.Fatalf("invoked = %v", mat.invoked)
	}
	if got := res.Query.Strings(); !reflect.DeepEqual(got, []string{"10"}) {
		t.Fatalf("result = %v", got)
	}
	// A query not touching "price" must not invoke it.
	mat.invoked = nil
	if _, err := s.Apply("T", mustParseQ(`Select i/other from i in D//item`), mat, Lazy); err != nil {
		t.Fatal(err)
	}
	if len(mat.invoked) != 0 {
		t.Fatalf("lazy over-invoked: %v", mat.invoked)
	}
}

func TestMaterializationResultIsAnotherServiceCall(t *testing.T) {
	log := wal.NewMemory()
	s := NewStore(log)
	if _, err := s.AddParsed("D.xml", `<D><axml:sc methodName="indirect" mode="replace"><val>old</val></axml:sc></D>`); err != nil {
		t.Fatal(err)
	}
	mat := newFakeMaterializer()
	// indirect returns another service call, which in turn produces val.
	mat.results["indirect"] = []string{`<axml:sc methodName="direct" mode="replace"/>`}
	mat.results["direct"] = []string{`<val>new</val>`}
	mat.resultNames["indirect"] = "val"
	mat.resultNames["direct"] = "val"

	res, err := s.Apply("T", mustParseQ(`Select d/val from d in D`), mat, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); !reflect.DeepEqual(got, []string{"new"}) {
		t.Fatalf("result = %v (invoked %v)", got, mat.invoked)
	}
	if !reflect.DeepEqual(mat.invoked, []string{"indirect", "direct"}) {
		t.Fatalf("invoked = %v", mat.invoked)
	}
}

func TestNestedParamMaterializedFirst(t *testing.T) {
	log := wal.NewMemory()
	s := NewStore(log)
	_, err := s.AddParsed("D.xml", `<D>
	  <axml:sc methodName="outer" mode="replace">
	    <axml:params><axml:param name="p"><axml:value><axml:sc methodName="inner" mode="replace"/></axml:value></axml:param></axml:params>
	  </axml:sc>
	</D>`)
	if err != nil {
		t.Fatal(err)
	}
	mat := newFakeMaterializer()
	mat.results["inner"] = []string{`<v>42</v>`}
	mat.results["outer"] = []string{`<out>ok</out>`}
	mat.resultNames["outer"] = "out"

	res, err := s.Apply("T", mustParseQ(`Select d/out from d in D`), mat, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat.invoked, []string{"inner", "outer"}) {
		t.Fatalf("invoked order = %v", mat.invoked)
	}
	// The inner result became outer's parameter value.
	if p := mat.params["outer"]; len(p) != 1 || p[0].Value != "42" {
		t.Fatalf("outer params = %+v", p)
	}
	if got := res.Query.Strings(); !reflect.DeepEqual(got, []string{"ok"}) {
		t.Fatalf("result = %v", got)
	}
}

func TestQueryWithoutMaterializerFailsOnlyWhenNeeded(t *testing.T) {
	s, _ := newTestStore(t)
	// Needs getPoints but no materializer.
	_, err := s.Apply("T", mustParseQ(
		`Select p/points from p in ATPList//player where p/name/lastname = Federer`), nil, Lazy)
	if !errors.Is(err, ErrNoMaterializer) {
		t.Fatalf("err = %v", err)
	}
	// Pure structural query works without one.
	if _, err := s.Apply("T", mustParseQ(
		`Select p/name from p in ATPList//player`), nil, Lazy); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeServiceFaultPropagates(t *testing.T) {
	s, _ := newTestStore(t)
	mat := newFakeMaterializer()
	mat.fail["getPoints"] = errors.New("fault A")
	_, err := s.Apply("T", mustParseQ(
		`Select p/points from p in ATPList//player where p/name/lastname = Federer`), mat, Lazy)
	if err == nil {
		t.Fatal("expected fault to propagate")
	}
}

func TestApplyDeleteByID(t *testing.T) {
	s, _ := newTestStore(t)
	doc, _ := s.Get("ATPList.xml")
	var target *xmldom.Node
	doc.Root().Walk(func(n *xmldom.Node) bool {
		if n.Name() == "citizenship" && target == nil {
			target = n
		}
		return true
	})
	res, err := s.Apply("T", &Action{Type: ActionDelete, Doc: "ATPList.xml", TargetID: target.ID(), Pos: -1}, nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeletedXML) != 1 {
		t.Fatalf("res = %+v", res)
	}
	// Deleting again is a no-op (already detached).
	res2, err := s.Apply("T", &Action{Type: ActionDelete, Doc: "ATPList.xml", TargetID: target.ID(), Pos: -1}, nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.DeletedXML) != 0 {
		t.Fatal("double delete by ID should be a no-op")
	}
	// Deleting a nonexistent ID errors.
	if _, err := s.Apply("T", &Action{Type: ActionDelete, Doc: "ATPList.xml", TargetID: 99999, Pos: -1}, nil, Lazy); err == nil {
		t.Fatal("expected error for unknown ID")
	}
}

func TestApplyInsertRestoreReattachesOriginalSubtree(t *testing.T) {
	s, _ := newTestStore(t)
	loc, _ := ParseQuery(`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`)
	del, err := s.Apply("T", NewDelete(loc), nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := s.Get("ATPList.xml")
	deletedID := uint64(0)
	for _, r := range s.Log().TxnRecords("T") {
		if r.Type == wal.TypeDelete {
			deletedID = r.NodeID
		}
	}
	rec := s.Log().TxnRecords("T")[0]
	restore := &Action{
		Type: ActionInsert, Doc: "ATPList.xml",
		ParentID: xmldom.NodeID(rec.ParentID), Pos: rec.Pos,
		Data: del.DeletedXML[0], RestoreID: xmldom.NodeID(deletedID),
	}
	res, err := s.Apply("T", restore, nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InsertedIDs) != 1 || uint64(res.InsertedIDs[0]) != deletedID {
		t.Fatalf("restore did not preserve ID: %v vs %d", res.InsertedIDs, deletedID)
	}
	n := doc.ByID(xmldom.NodeID(deletedID))
	if n.Parent() == nil || n.TextContent() != "Swiss" {
		t.Fatal("subtree not reattached")
	}
}

func TestApplyDeleteRootRefused(t *testing.T) {
	s, _ := newTestStore(t)
	loc, _ := ParseQuery(`Select p from p in ATPList`)
	if _, err := s.Apply("T", NewDelete(loc), nil, Lazy); err == nil {
		t.Fatal("deleting root must fail")
	}
}

func TestApplyDeleteNestedTargetsPruned(t *testing.T) {
	log := wal.NewMemory()
	s := NewStore(log)
	if _, err := s.AddParsed("D.xml", `<D><a><x/><a><x/></a></a></D>`); err != nil {
		t.Fatal(err)
	}
	loc, _ := ParseQuery(`Select n from n in D//a`)
	res, err := s.Apply("T", NewDelete(loc), nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	// Outer <a> subsumes the inner one: exactly one delete.
	if len(res.DeletedXML) != 1 {
		t.Fatalf("deleted = %v", res.DeletedXML)
	}
}

func TestApplyErrors(t *testing.T) {
	s, _ := newTestStore(t)
	locMissing, _ := ParseQuery(`Select p/nothing from p in ATPList//player`)
	if _, err := s.Apply("T", NewDelete(locMissing), nil, Lazy); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("delete no targets err = %v", err)
	}
	otherDoc, _ := ParseQuery(`Select p from p in Missing//x`)
	if _, err := s.Apply("T", NewQuery(otherDoc), nil, Lazy); !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("missing doc err = %v", err)
	}
	if _, err := s.Apply("T", &Action{Type: ActionInsert}, nil, Lazy); err == nil {
		t.Fatal("invalid action accepted")
	}
}

func TestAffectedNodesAccounting(t *testing.T) {
	s, _ := newTestStore(t)
	loc, _ := ParseQuery(`Select p from p in ATPList//player where p/name/lastname = Nadal`)
	res, err := s.Apply("T", NewDelete(loc), nil, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	// Nadal subtree: player, name, firstname+text, lastname+text,
	// citizenship+text = 8 nodes.
	if res.AffectedNodes != 8 {
		t.Fatalf("affected = %d", res.AffectedNodes)
	}
}

func TestSnapshotIsolatedFromStore(t *testing.T) {
	s, _ := newTestStore(t)
	snap, ok := s.Snapshot("ATPList.xml")
	if !ok {
		t.Fatal("snapshot failed")
	}
	loc, _ := ParseQuery(`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`)
	if _, err := s.Apply("T", NewDelete(loc), nil, Lazy); err != nil {
		t.Fatal(err)
	}
	live, _ := s.Get("ATPList.xml")
	if live.Equal(snap) {
		t.Fatal("snapshot should differ after delete")
	}
}

func TestMaterializeCallDirect(t *testing.T) {
	s, _ := newTestStore(t)
	mat := newFakeMaterializer()
	mat.results["getPoints"] = []string{`<points>999</points>`}
	doc, _ := s.Get("ATPList.xml")
	var scID xmldom.NodeID
	for _, sc := range ServiceCalls(doc) {
		if sc.Service() == "getPoints" {
			scID = sc.ID()
		}
	}
	res, err := s.MaterializeCall("T", "ATPList.xml", scID, mat)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InsertedIDs) != 1 || len(res.DeletedXML) != 1 {
		t.Fatalf("res = %+v", res)
	}
	qres, _ := s.Apply("T", mustParseQ(`Select p/points from p in ATPList//player where p/name/lastname = Federer`), mat, Lazy)
	if got := qres.Query.Strings(); !reflect.DeepEqual(got, []string{"999"}) {
		t.Fatalf("points = %v", got)
	}
}

func TestMaterializeAllEager(t *testing.T) {
	s, _ := newTestStore(t)
	mat := newFakeMaterializer()
	mat.results["getPoints"] = []string{`<points>890</points>`}
	mat.results["getGrandSlamsWonbyYear"] = []string{`<grandslamswon year="2005">A, F</grandslamswon>`}
	res, err := s.MaterializeAll("T", "ATPList.xml", mat)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Materialized) != 2 {
		t.Fatalf("materialized = %v", res.Materialized)
	}
}
