package core

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/codec"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

const atpXML = `<ATPList date="18042005">
  <player rank="1">
    <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
    <citizenship>Swiss</citizenship>
    <axml:sc mode="replace" methodName="getPoints">
      <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
      <points>475</points>
    </axml:sc>
    <axml:sc mode="merge" methodName="getGrandSlamsWonbyYear">
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

type tableMat struct {
	results map[string][]string
	names   map[string]string
}

func (m *tableMat) Invoke(txn string, call *axml.ServiceCall, params []axml.Param) ([]string, error) {
	return m.results[call.Service()], nil
}

func (m *tableMat) ResultName(service string) string { return m.names[service] }

func newCompStore(t *testing.T) (*axml.Store, *xmldom.Document) {
	t.Helper()
	s := axml.NewStore(wal.NewMemory())
	doc, err := s.AddParsed("ATPList.xml", atpXML)
	if err != nil {
		t.Fatal(err)
	}
	return s, doc
}

func applyOrFatal(t *testing.T, s *axml.Store, txn, locSrc string, build func(loc *axml.Action)) {
	t.Helper()
	loc, err := axml.ParseQuery(locSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := &axml.Action{Location: loc, Pos: -1}
	build(a)
	if _, err := s.Apply(txn, a, nil, axml.Lazy); err != nil {
		t.Fatal(err)
	}
}

// assertRestored checks the document is structurally identical to the
// pre-transaction snapshot after compensation.
func assertRestored(t *testing.T, s *axml.Store, snapshot *xmldom.Document) {
	t.Helper()
	live, _ := s.Get("ATPList.xml")
	if !live.Equal(snapshot) {
		t.Fatalf("compensation did not restore the document:\nwant: %s\ngot:  %s",
			xmldom.MarshalString(snapshot.Root()), xmldom.MarshalString(live.Root()))
	}
}

func TestCompensateDelete(t *testing.T) {
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T1",
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`,
		func(a *axml.Action) { a.Type = axml.ActionDelete })
	affected, err := Compensate(s, "T1")
	if err != nil {
		t.Fatal(err)
	}
	if affected == 0 {
		t.Fatal("no nodes affected")
	}
	assertRestored(t, s, snapshot)
}

func TestCompensateInsert(t *testing.T) {
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T1",
		`Select p from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionInsert; a.Data = `<points>5000</points>` })
	if _, err := Compensate(s, "T1"); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, s, snapshot)
}

func TestCompensateReplace(t *testing.T) {
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T1",
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionReplace; a.Data = `<citizenship>USA</citizenship>` })
	if _, err := Compensate(s, "T1"); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, s, snapshot)
}

func TestCompensateQueryMaterializationReplaceMode(t *testing.T) {
	// Paper Query B: lazy evaluation materializes getPoints (replace mode,
	// 475 -> 890); compensation must restore 475.
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	mat := &tableMat{results: map[string][]string{
		"getPoints": {`<points>890</points>`},
	}}
	q, _ := axml.ParseQuery(`Select p/citizenship, p/points from p in ATPList//player where p/name/lastname = Federer`)
	if _, err := s.Apply("TB", axml.NewQuery(q), mat, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	live, _ := s.Get("ATPList.xml")
	if live.Equal(snapshot) {
		t.Fatal("materialization had no effect")
	}
	if _, err := Compensate(s, "TB"); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, s, snapshot)
}

func TestCompensateQueryMaterializationMergeMode(t *testing.T) {
	// Paper Query A: merge mode appends the 2005 result; compensation
	// deletes exactly that node.
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	mat := &tableMat{results: map[string][]string{
		"getGrandSlamsWonbyYear": {`<grandslamswon year="2005">A, F</grandslamswon>`},
	}}
	q, _ := axml.ParseQuery(`Select p/grandslamswon from p in ATPList//player where p/name/lastname = Federer`)
	if _, err := s.Apply("TA", axml.NewQuery(q), mat, axml.Lazy); err != nil {
		t.Fatal(err)
	}
	if _, err := Compensate(s, "TA"); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, s, snapshot)
}

func TestCompensateMixedOperationSequence(t *testing.T) {
	// Insert, then delete part of what existed, then replace, then delete
	// the earlier insert — reverse-order compensation must untangle all.
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T",
		`Select p from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionInsert; a.Data = `<coach>Toni</coach>` })
	applyOrFatal(t, s, "T",
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`,
		func(a *axml.Action) { a.Type = axml.ActionDelete })
	applyOrFatal(t, s, "T",
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionReplace; a.Data = `<citizenship>USA</citizenship>` })
	applyOrFatal(t, s, "T",
		`Select p/coach from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionDelete })
	if _, err := Compensate(s, "T"); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, s, snapshot)
}

func TestCompensateInsertThenDeleteOfSameNode(t *testing.T) {
	// The tricky identity case: T inserts X then deletes X. Compensation
	// re-inserts X (restoring its identity) and then deletes it again —
	// net zero, no duplicate.
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T",
		`Select p from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionInsert; a.Data = `<temp>x</temp>` })
	applyOrFatal(t, s, "T",
		`Select p/temp from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionDelete })
	if _, err := Compensate(s, "T"); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, s, snapshot)
}

func TestCompensateIdempotent(t *testing.T) {
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T",
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`,
		func(a *axml.Action) { a.Type = axml.ActionDelete })
	if _, err := Compensate(s, "T"); err != nil {
		t.Fatal(err)
	}
	// Second run is a no-op.
	affected, err := Compensate(s, "T")
	if err != nil {
		t.Fatal(err)
	}
	if affected != 0 {
		t.Fatalf("second compensation affected %d nodes", affected)
	}
	assertRestored(t, s, snapshot)
	if !AlreadyCompensated(s.Log(), "T") {
		t.Fatal("AlreadyCompensated false after compensation")
	}
}

func TestCompensateOnlyTargetTxn(t *testing.T) {
	s, _ := newCompStore(t)
	applyOrFatal(t, s, "T1",
		`Select p from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionInsert; a.Data = `<a1/>` })
	applyOrFatal(t, s, "T2",
		`Select p from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionInsert; a.Data = `<a2/>` })
	if _, err := Compensate(s, "T1"); err != nil {
		t.Fatal(err)
	}
	live, _ := s.Get("ATPList.xml")
	found := map[string]bool{}
	live.Root().Walk(func(n *xmldom.Node) bool {
		found[n.Name()] = true
		return true
	})
	if found["a1"] {
		t.Fatal("T1's insert survived its compensation")
	}
	if !found["a2"] {
		t.Fatal("T2's insert was wrongly compensated")
	}
}

func TestBuildCompensationReverseOrder(t *testing.T) {
	s, _ := newCompStore(t)
	applyOrFatal(t, s, "T",
		`Select p from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionInsert; a.Data = `<first/>` })
	applyOrFatal(t, s, "T",
		`Select p from p in ATPList//player where p/name/lastname = Nadal`,
		func(a *axml.Action) { a.Type = axml.ActionInsert; a.Data = `<second/>` })
	actions := BuildCompensation(s.Log(), "T")
	if len(actions) != 2 {
		t.Fatalf("actions = %d", len(actions))
	}
	// Both are deletes; the LAST insert is compensated FIRST.
	if actions[0].Type != axml.ActionDelete || actions[1].Type != axml.ActionDelete {
		t.Fatal("compensation of insert must be delete")
	}
	if actions[0].TargetID <= actions[1].TargetID {
		t.Fatalf("not reverse order: %d then %d", actions[0].TargetID, actions[1].TargetID)
	}
}

func TestCompensationDefRoundTripAndExecute(t *testing.T) {
	s, doc := newCompStore(t)
	snapshot := doc.Clone()
	applyOrFatal(t, s, "T",
		`Select p/citizenship from p in ATPList//player where p/name/lastname = Federer`,
		func(a *axml.Action) { a.Type = axml.ActionDelete })

	def := BuildCompensationDef(s, "T", "AP2", "deleteCitizenship")
	if def.Peer != "AP2" || def.Service != "deleteCitizenship" || len(def.Actions) != 1 {
		t.Fatalf("def = %+v", def)
	}
	if def.Nodes == 0 {
		t.Fatal("def cost not estimated")
	}
	back, err := DecodeCompensationDef(def.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Executing the shipped definition restores the document.
	if _, err := back.Execute(s); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, s, snapshot)
	// Executing again (or locally compensating) is a no-op.
	if n, err := back.Execute(s); err != nil || n != 0 {
		t.Fatalf("re-execute = %d, %v", n, err)
	}
	if n, err := Compensate(s, "T"); err != nil || n != 0 {
		t.Fatalf("local compensate after def = %d, %v", n, err)
	}
}

func TestCompensationDefCodec(t *testing.T) {
	defs := map[string]*CompensationDef{
		"zero": {},
		"all fields": {
			Txn: "txn-1", Peer: "AP2", Service: "svcB",
			Actions: []string{`<action type="delete"/>`, `<action type="insert"><x/></action>`},
			Docs:    []string{"D2.xml", "D3.xml"}, Nodes: 7,
		},
	}
	for name, in := range defs {
		out, err := DecodeCompensationDef(in.Encode())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", name, out, in)
		}
	}
	blob := defs["all fields"].Encode()
	if got := hex.EncodeToString(blob[:8]); got != "010574786e2d3103" {
		t.Fatalf("encoding opens with %s, want version 01 then the txn", got)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeCompensationDef(blob[:cut]); !errors.Is(err, codec.ErrMalformed) {
			t.Fatalf("truncated at %d: err = %v, want codec.ErrMalformed", cut, err)
		}
	}
	if _, err := DecodeCompensationDef(append(blob, 0)); !errors.Is(err, codec.ErrTrailing) {
		t.Fatalf("trailing byte: err = %v, want codec.ErrTrailing", err)
	}
	blob[0] = 0x02
	if _, err := DecodeCompensationDef(blob); !errors.Is(err, errWireVersion) {
		t.Fatalf("unknown version: err = %v, want errWireVersion", err)
	}
}

func TestHasCommitted(t *testing.T) {
	s, _ := newCompStore(t)
	if HasCommitted(s.Log(), "T") {
		t.Fatal("empty log reports committed")
	}
	if _, err := s.Log().Append(&wal.Record{Txn: "T", Type: wal.TypeCommit}); err != nil {
		t.Fatal(err)
	}
	if !HasCommitted(s.Log(), "T") {
		t.Fatal("commit record not seen")
	}
}
