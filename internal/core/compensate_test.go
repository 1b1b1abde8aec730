package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/codec"
	"axmltx/internal/p2p"
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
			Actions: []*axml.Action{
				{Type: axml.ActionDelete, Doc: "D2.xml", TargetID: 41, Pos: -1},
				{Type: axml.ActionInsert, Doc: "D3.xml", ParentID: 3, Pos: 2, RestoreID: 9, Data: "<x a=\"1\">t</x>"},
			},
			Nodes: 7,
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
	if got := defs["all fields"].Docs(); !reflect.DeepEqual(got, []string{"D2.xml", "D3.xml"}) {
		t.Fatalf("Docs() = %v", got)
	}
	blob := defs["all fields"].Encode()
	if got := hex.EncodeToString(blob[:8]); got != "020574786e2d3103" {
		t.Fatalf("encoding opens with %s, want version 02 then the txn", got)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeCompensationDef(blob[:cut]); !errors.Is(err, codec.ErrMalformed) {
			t.Fatalf("truncated at %d: err = %v, want codec.ErrMalformed", cut, err)
		}
	}
	if _, err := DecodeCompensationDef(append(blob, 0)); !errors.Is(err, codec.ErrTrailing) {
		t.Fatalf("trailing byte: err = %v, want codec.ErrTrailing", err)
	}
	for _, v := range []byte{0x01, 0x03} {
		blob[0] = v
		if _, err := DecodeCompensationDef(blob); !errors.Is(err, errWireVersion) {
			t.Fatalf("version %d: err = %v, want errWireVersion", v, err)
		}
	}
	replace := &CompensationDef{Txn: "T", Actions: []*axml.Action{{Type: axml.ActionReplace, Doc: "D", TargetID: 1, Data: "<x/>"}}}
	if _, err := DecodeCompensationDef(replace.Encode()); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("replace action: err = %v, want codec.ErrMalformed", err)
	}
}

// FuzzCompensationDefDecode asserts the definition decoder never panics, that
// whatever it accepts re-encodes to the same bytes, and that it accepts only
// insert and delete actions. Wired into the CI and nightly fuzz jobs.
func FuzzCompensationDefDecode(f *testing.F) {
	def := &CompensationDef{
		Txn: "T", Peer: "AP2", Service: "S",
		Actions: []*axml.Action{
			{Type: axml.ActionDelete, Doc: "D.xml", TargetID: 12, Pos: -1},
			{Type: axml.ActionInsert, Doc: "D.xml", ParentID: 2, Pos: 0, RestoreID: 5, Data: "<a><b/></a>"},
		},
		Nodes: 3,
	}
	f.Add(def.Encode())
	f.Add((&CompensationDef{}).Encode())
	v1 := def.Encode()
	v1[0] = 0x01
	f.Add(v1)
	def.Actions[0].Type = axml.ActionQuery
	f.Add(def.Encode())
	f.Fuzz(func(t *testing.T, blob []byte) {
		d, err := DecodeCompensationDef(blob)
		if err != nil {
			return
		}
		if got := d.Encode(); string(got) != string(blob) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, blob)
		}
		for i, a := range d.Actions {
			if a.Type != axml.ActionInsert && a.Type != axml.ActionDelete {
				t.Fatalf("action %d decoded with type %s", i, a.Type)
			}
		}
	})
}

// randomTxn applies a random insert/delete/replace/lazy-query sequence under
// txn T; the same rng seed yields the same sequence and effects on any
// store holding the same initial document.
func randomTxn(t *testing.T, s *axml.Store, rng *rand.Rand) {
	t.Helper()
	players := []string{"Federer", "Nadal"}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		who := players[rng.Intn(len(players))]
		var (
			src string
			a   = &axml.Action{Pos: -1}
			mat axml.Materializer
		)
		switch rng.Intn(5) {
		case 0:
			src = `Select p from p in ATPList//player where p/name/lastname = ` + who
			a.Type, a.Data = axml.ActionInsert, fmt.Sprintf(`<note n="%d"><v>%d</v></note>`, i, rng.Intn(100))
		case 1:
			src = `Select p/note from p in ATPList//player where p/name/lastname = ` + who
			a.Type = axml.ActionDelete
		case 2:
			src = `Select p/citizenship from p in ATPList//player where p/name/lastname = ` + who
			a.Type, a.Data = axml.ActionReplace, fmt.Sprintf(`<citizenship>C%d</citizenship>`, rng.Intn(100))
		case 3:
			src = `Select p/citizenship from p in ATPList//player where p/name/lastname = ` + who
			a.Type = axml.ActionDelete
		default:
			src = `Select p/points, p/grandslamswon from p in ATPList//player where p/name/lastname = Federer`
			a.Type = axml.ActionQuery
			mat = &tableMat{results: map[string][]string{
				"getPoints":              {fmt.Sprintf(`<points>%d</points>`, rng.Intn(1000))},
				"getGrandSlamsWonbyYear": {fmt.Sprintf(`<grandslamswon year="%d">W</grandslamswon>`, 2005+i)},
			}}
		}
		loc, err := axml.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		a.Location = loc
		// Operations whose location matches nothing fail identically on
		// every twin; the sequence simply moves on.
		_, _ = s.Apply("T", a, mat, axml.Lazy)
	}
}

// TestCompensationShippedEqualsLocal is the one-executor property: on twin
// stores running the same random transaction, local Compensate and the
// shipped path (build, encode, decode, execute) leave byte-identical
// documents — the pre-transaction one — and report the same affected count.
func TestCompensationShippedEqualsLocal(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		local, doc := newCompStore(t)
		shipped, _ := newCompStore(t)
		before := xmldom.MarshalString(doc.Root())
		randomTxn(t, local, rand.New(rand.NewSource(seed)))
		randomTxn(t, shipped, rand.New(rand.NewSource(seed)))

		nLocal, err := Compensate(local, "T")
		if err != nil {
			t.Fatalf("seed %d: local: %v", seed, err)
		}
		def, err := DecodeCompensationDef(BuildCompensationDef(shipped, "T", "AP2", "S").Encode())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		nShipped, err := def.Execute(shipped)
		if err != nil {
			t.Fatalf("seed %d: shipped: %v", seed, err)
		}
		a, _ := local.Get("ATPList.xml")
		b, _ := shipped.Get("ATPList.xml")
		got, want := xmldom.MarshalString(b.Root()), xmldom.MarshalString(a.Root())
		if got != want || nShipped != nLocal {
			t.Fatalf("seed %d: shipped (%d nodes) != local (%d nodes):\n got %s\nwant %s", seed, nShipped, nLocal, got, want)
		}
		if want != before {
			t.Fatalf("seed %d: compensation did not restore the document:\n got %s\nwant %s", seed, want, before)
		}
	}
}

var errInjected = errors.New("injected log failure")

// faultyLog fails its failAt-th Append (1-based; 0 never) and, when
// failSync is set, every durability wait: each Sync, and each decision
// Append after its record is stored, as a durable log whose fsync failed.
type faultyLog struct {
	wal.Log
	failAt   atomic.Int64
	appends  atomic.Int64
	failSync bool
}

// failNext arms the log to fail the n-th append from now (1-based).
func (l *faultyLog) failNext(n int64) { l.failAt.Store(l.appends.Load() + n) }

func (l *faultyLog) Append(r *wal.Record) (uint64, error) {
	if l.appends.Add(1) == l.failAt.Load() {
		return 0, errInjected
	}
	lsn, err := l.Log.Append(r)
	switch r.Type {
	case wal.TypeCommit, wal.TypeAbort, wal.TypeCompensateEnd:
		if err == nil && l.failSync {
			return 0, errInjected
		}
	}
	return lsn, err
}

func (l *faultyLog) Sync() error {
	if l.failSync {
		return errInjected
	}
	return l.Log.Sync()
}

// TestApplyFailedAppendIsCompensable fails each append of a transaction in
// turn: the operation that hit it errors, and compensation of what did
// reach the log restores the pre-transaction document byte for byte — no
// effect is left behind without its record.
func TestApplyFailedAppendIsCompensable(t *testing.T) {
	ops := []struct {
		src string
		a   axml.Action
		mat axml.Materializer
	}{
		{`Select p from p in ATPList//player where p/name/lastname = Nadal`,
			axml.Action{Type: axml.ActionInsert, Data: `<coach>Toni</coach><team>ESP</team>`, Pos: -1}, nil},
		{`Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal`,
			axml.Action{Type: axml.ActionReplace, Data: `<citizenship>USA</citizenship>`, Pos: -1}, nil},
		{`Select p/citizenship, p/points from p in ATPList//player where p/name/lastname = Federer`,
			axml.Action{Type: axml.ActionQuery, Pos: -1},
			&tableMat{results: map[string][]string{"getPoints": {`<points>890</points>`}}}},
		{`Select p/grandslamswon from p in ATPList//player where p/name/lastname = Federer`,
			axml.Action{Type: axml.ActionQuery, Pos: -1},
			&tableMat{results: map[string][]string{"getGrandSlamsWonbyYear": {`<grandslamswon year="2005">A, F</grandslamswon>`}}}},
	}
	for failAt := int64(1); ; failAt++ {
		log := &faultyLog{Log: wal.NewMemory()}
		log.failAt.Store(failAt)
		s := axml.NewStore(log)
		doc, err := s.AddParsed("ATPList.xml", atpXML)
		if err != nil {
			t.Fatal(err)
		}
		before := xmldom.MarshalString(doc.Root())
		var applyErr error
		for _, op := range ops {
			a := op.a
			if a.Location, err = axml.ParseQuery(op.src); err != nil {
				t.Fatal(err)
			}
			if _, applyErr = s.Apply("T", &a, op.mat, axml.Lazy); applyErr != nil {
				break
			}
		}
		if applyErr == nil {
			if failAt < 4 {
				t.Fatalf("only %d appends: the script exercises too little", failAt-1)
			}
			return // every append of the script has been failed once
		}
		if !errors.Is(applyErr, errInjected) {
			t.Fatalf("append %d: Apply err = %v, want the injected failure", failAt, applyErr)
		}
		if _, err := Compensate(s, "T"); err != nil {
			t.Fatalf("append %d: compensate: %v", failAt, err)
		}
		live, _ := s.Get("ATPList.xml")
		if got := xmldom.MarshalString(live.Root()); got != before {
			t.Fatalf("append %d failed: abort left\n%s\nwant\n%s", failAt, got, before)
		}
	}
}

// TestAbortReportsFailedSync: an abort whose decision record could not be
// made durable returns an error wrapping the sync failure, which the
// record's own Append reports, and counts it.
func TestAbortReportsFailedSync(t *testing.T) {
	net := p2p.NewNetwork(0)
	log := &faultyLog{Log: wal.NewMemory(), failSync: true}
	ap1 := NewPeer(net.Join("AP1"), log, Options{})
	hostEntryService(t, ap1, "S1", "D1.xml")
	txc := ap1.Begin()
	if _, err := ap1.Call(bg, txc, "AP1", "S1", nil); err != nil {
		t.Fatal(err)
	}
	err := ap1.Abort(bg, txc)
	if !errors.Is(err, errInjected) {
		t.Fatalf("Abort err = %v, want the injected sync failure", err)
	}
	if n := ap1.Metrics().AbortErrors.Load(); n != 1 {
		t.Fatalf("AbortErrors = %d, want 1", n)
	}
	if entryCount(t, ap1, "D1.xml") != 0 {
		t.Fatal("compensation did not run after the failed sync")
	}
}

// TestRejectedCompDefCounted: a definition in the retired version-1 format
// is dropped where it arrives — in a reply or shipped directly — and each
// drop is counted, so a participant lost to peer-independent recovery shows.
func TestRejectedCompDefCounted(t *testing.T) {
	c := newCluster(t)
	ap1 := c.add("AP1", Options{})
	txc := ap1.Begin()
	v1 := (&CompensationDef{Txn: txc.ID, Peer: "AP2", Service: "S2"}).Encode()
	v1[0] = 0x01
	ap1.handleResult(&p2p.Message{Kind: p2p.KindResult, Txn: txc.ID, From: "AP2",
		Payload: encode(&InvokeResponse{Service: "S2", Comp: v1})})
	if n := ap1.Metrics().CompDefsRejected.Load(); n != 1 {
		t.Fatalf("after reply: CompDefsRejected = %d, want 1", n)
	}
	if kids := txc.Children(); len(kids) != 1 || kids[0].Comp != nil {
		t.Fatalf("children = %+v, want AP2 recorded without a definition", kids)
	}
	ap1.handleCompDef(&p2p.Message{Kind: p2p.KindCompDef, Txn: txc.ID, Payload: v1})
	if n := ap1.Metrics().CompDefsRejected.Load(); n != 2 {
		t.Fatalf("after compdef: CompDefsRejected = %d, want 2", n)
	}
	if len(txc.CompDefs()) != 0 {
		t.Fatal("a rejected definition was stored")
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
