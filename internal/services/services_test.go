package services

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/wal"
)

const atp = `<ATPList date="18042005">
  <player rank="1">
    <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
    <citizenship>Swiss</citizenship>
    <points>475</points>
  </player>
  <player rank="2">
    <name><firstname>Rafael</firstname><lastname>Nadal</lastname></name>
    <citizenship>Spanish</citizenship>
  </player>
</ATPList>`

func newStore(t *testing.T) *axml.Store {
	t.Helper()
	s := axml.NewStore(wal.NewMemory())
	if _, err := s.AddParsed("ATPList.xml", atp); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQueryServiceWithParams(t *testing.T) {
	store := newStore(t)
	svc := NewQueryService(
		Descriptor{Name: "getPoints", ResultName: "points",
			Params: []ParamDef{{Name: "lastname", Required: true}}},
		store,
		`Select p/points from p in ATPList//player where p/name/lastname = $lastname`,
		nil, axml.Lazy)

	out, err := svc.Invoke(context.Background(), &Request{Txn: "T", Params: map[string]string{"lastname": "Federer"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "<points>475</points>" {
		t.Fatalf("out = %v", out)
	}
}

func TestQueryServiceAttributeResult(t *testing.T) {
	store := newStore(t)
	svc := NewQueryService(Descriptor{Name: "getRanks", ResultName: "rank"}, store,
		`Select p/@rank from p in ATPList//player`, nil, axml.Lazy)
	out, err := svc.Invoke(context.Background(), &Request{Txn: "T"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != "<rank>1</rank>" {
		t.Fatalf("out = %v", out)
	}
}

// TestQueryServiceBadTemplate: a template that does not parse fails every
// invocation with the same error, though a parameter-free one is parsed
// at construction.
func TestQueryServiceBadTemplate(t *testing.T) {
	store := newStore(t)
	svc := NewQueryService(Descriptor{Name: "bad"}, store, `Select nonsense !!`, nil, axml.Lazy)
	_, first := svc.Invoke(context.Background(), &Request{Txn: "T1"})
	_, second := svc.Invoke(context.Background(), &Request{Txn: "T2"})
	if first == nil || second == nil || first.Error() != second.Error() {
		t.Fatalf("bad template: %v, then %v", first, second)
	}
}

func TestUpdateServiceInsertReturnsIDs(t *testing.T) {
	store := newStore(t)
	svc := NewUpdateService(
		Descriptor{Name: "addTitle", Params: []ParamDef{{Name: "lastname", Required: true}, {Name: "title", Required: true}}},
		store,
		`<action type="insert"><data><title>$title</title></data><location>Select p from p in ATPList//player where p/name/lastname = "$lastname";</location></action>`,
		nil)
	out, err := svc.Invoke(context.Background(), &Request{Txn: "T", Params: map[string]string{"lastname": "Federer", "title": "Wimbledon"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0], "<insertedID>") {
		t.Fatalf("out = %v", out)
	}
	// Verify the document changed.
	check := NewQueryService(Descriptor{Name: "q"}, store,
		`Select p/title from p in ATPList//player where p/name/lastname = "Federer"`, nil, axml.Lazy)
	res, err := check.Invoke(context.Background(), &Request{Txn: "T"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != "<title>Wimbledon</title>" {
		t.Fatalf("check = %v", res)
	}
}

func TestRegistryInvokeValidatesParams(t *testing.T) {
	r := NewRegistry()
	r.Register(StaticService(Descriptor{
		Name: "needsName", ResultName: "x",
		Params: []ParamDef{{Name: "name", Required: true}, {Name: "opt"}},
	}, "<x/>"))

	if _, err := r.Invoke(context.Background(), "needsName", &Request{Params: map[string]string{}}); !errors.Is(err, ErrMissingParam) {
		t.Fatalf("err = %v", err)
	}
	out, err := r.Invoke(context.Background(), "needsName", &Request{Params: map[string]string{"name": "x"}})
	if err != nil || len(out) != 1 {
		t.Fatalf("out = %v, %v", out, err)
	}
	if _, err := r.Invoke(context.Background(), "ghost", &Request{}); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegistryNamesAndResultName(t *testing.T) {
	r := NewRegistry()
	r.Register(StaticService(Descriptor{Name: "b", ResultName: "vb"}, "<vb/>"))
	r.Register(StaticService(Descriptor{Name: "a", ResultName: "va"}, "<va/>"))
	names := r.Names()
	if len(names) != 2 || names[0] != "a" {
		t.Fatalf("names = %v", names)
	}
	if r.ResultName("a") != "va" || r.ResultName("ghost") != "" {
		t.Fatal("ResultName")
	}
}

func TestFaultNameExtraction(t *testing.T) {
	base := &Fault{Name: "A", Msg: "backend down"}
	wrapped := errors.Join(errors.New("ctx"), base)
	if FaultName(wrapped) != "A" {
		t.Fatal("wrapped fault name")
	}
	if FaultName(errors.New("anon")) != "" {
		t.Fatal("anonymous error should have no fault name")
	}
	if !strings.Contains(base.Error(), "backend down") {
		t.Fatal("fault message lost")
	}
}

func TestSubstituteLongestFirst(t *testing.T) {
	got := substitute("x=$year2 y=$year", map[string]string{"year": "2004", "year2": "2005"}, false)
	if got != "x=2005 y=2004" {
		t.Fatalf("got %q", got)
	}
	quoted := substitute("p = $v", map[string]string{"v": `Ro"ger`}, true)
	if quoted != `p = "Roger"` {
		t.Fatalf("quoted = %q", quoted)
	}
}

func TestDescriptorXML(t *testing.T) {
	d := Descriptor{Name: "getPoints", Kind: KindQuery, Doc: "ATP points", ResultName: "points",
		Params: []ParamDef{{Name: "name", Required: true}}}
	x := d.XML()
	for _, want := range []string{`name="getPoints"`, `kind="query"`, `resultName="points"`, `<param name="name" required="true"/>`} {
		if !strings.Contains(x, want) {
			t.Fatalf("descriptor XML %q missing %q", x, want)
		}
	}
}

func TestContinuousStreamAndWatcher(t *testing.T) {
	cont := NewContinuous(Descriptor{Name: "ticker", ResultName: "tick"}, 3*time.Millisecond,
		func(seq int) []string { return []string{"<tick/>"} })

	if d := cont.Interval(); d != 3*time.Millisecond {
		t.Fatal("interval")
	}
	if out, err := cont.Invoke(context.Background(), &Request{}); err != nil || len(out) != 1 {
		t.Fatal("invoke first batch")
	}

	silence := make(chan struct{}, 1)
	w := NewStreamWatcher(50*time.Millisecond, func() { silence <- struct{}{} })
	w.Start()

	ctx, cancel := context.WithCancel(context.Background())
	var received atomic.Int32
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- cont.Stream(ctx, func(seq int, frags []string) error {
			received.Add(1)
			w.Observe()
			if received.Load() >= 3 {
				cancel() // producer "disconnects" after 3 batches
			}
			return nil
		})
	}()

	select {
	case <-silence:
		// Watcher fired after the stream went quiet.
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never fired")
	}
	if received.Load() < 3 {
		t.Fatalf("received = %d", received.Load())
	}
	if !w.Fired() || w.Batches() < 3 {
		t.Fatalf("watcher state: fired=%v batches=%d", w.Fired(), w.Batches())
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("stream err = %v", err)
	}
	w.Stop()
}

func TestStreamStopsOnEmitError(t *testing.T) {
	cont := NewContinuous(Descriptor{Name: "t"}, time.Millisecond, func(seq int) []string { return nil })
	sentinel := errors.New("subscriber gone")
	err := cont.Stream(context.Background(), func(seq int, frags []string) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestWatcherObserveAfterStopIgnored(t *testing.T) {
	w := NewStreamWatcher(10*time.Millisecond, func() { t.Error("fired after stop") })
	w.Start()
	w.Stop()
	w.Observe()
	time.Sleep(30 * time.Millisecond)
}

func TestDescriptorsOfAllServiceTypes(t *testing.T) {
	store := newStore(t)
	q := NewQueryService(Descriptor{Name: "q"}, store, `Select p from p in ATPList`, nil, axml.Lazy)
	if q.Descriptor().Kind != KindQuery {
		t.Fatal("query kind")
	}
	u := NewUpdateService(Descriptor{Name: "u"}, store, `<action type="query"><location>Select p from p in ATPList</location></action>`, nil)
	if u.Descriptor().Kind != KindUpdate {
		t.Fatal("update kind")
	}
	c := NewContinuous(Descriptor{Name: "c"}, time.Second, func(int) []string { return nil })
	if c.Descriptor().Kind != KindContinuous {
		t.Fatal("continuous kind")
	}
	f := NewFuncService(Descriptor{Name: "f"}, func(context.Context, map[string]string) ([]string, error) { return nil, nil })
	if f.Descriptor().Kind != KindGeneric {
		t.Fatal("generic kind default")
	}
}

func TestFaultErrorWithoutMessage(t *testing.T) {
	f := &Fault{Name: "X"}
	if f.Error() != "fault X" {
		t.Fatalf("Error() = %q", f.Error())
	}
}

// TestUpdateServiceBadTemplate: as TestQueryServiceBadTemplate.
func TestUpdateServiceBadTemplate(t *testing.T) {
	store := newStore(t)
	svc := NewUpdateService(Descriptor{Name: "bad"}, store, `not xml at all`, nil)
	_, first := svc.Invoke(context.Background(), &Request{Txn: "T1"})
	_, second := svc.Invoke(context.Background(), &Request{Txn: "T2"})
	if first == nil || second == nil || first.Error() != second.Error() {
		t.Fatalf("bad template: %v, then %v", first, second)
	}
}

func TestUpdateServiceApplyFailure(t *testing.T) {
	store := newStore(t)
	svc := NewUpdateService(Descriptor{Name: "missing"}, store,
		`<action type="delete"><location>Select p/nothing from p in ATPList//player;</location></action>`, nil)
	if _, err := svc.Invoke(context.Background(), &Request{Txn: "T"}); err == nil {
		t.Fatal("no-target delete should fail")
	}
}

// TestFixedTemplatesParsedOnce: a template without a $ placeholder is
// parsed at construction and shared. Its invocations give what parsing it
// on every call gives, with fewer allocations.
func TestFixedTemplatesParsedOnce(t *testing.T) {
	const update = `<action type="replace"><data><points>1</points></data>` +
		`<location>Select p/points from p in ATPList//player where p/name/lastname = "Federer";</location></action>`
	const read = `Select p/points from p in ATPList//player where p/name/lastname = "Federer"`
	shared, perCall := newStore(t), newStore(t)
	desc := Descriptor{Name: "setPoints"}
	fixed := NewUpdateService(desc, shared, update, nil)
	if fixed.fixed == nil {
		t.Fatal("parameter-free update template not parsed at construction")
	}
	// The same service with the parse left to every call.
	parsing := &UpdateService{desc: desc, store: perCall, template: update}
	fixedRead := NewQueryService(Descriptor{Name: "getPoints"}, shared, read, nil, axml.Lazy)
	if fixedRead.fixed == nil {
		t.Fatal("parameter-free query template not parsed at construction")
	}
	parsingRead := &QueryService{desc: Descriptor{Name: "getPoints"}, store: perCall, template: read, mode: axml.Lazy}
	ctx := context.Background()
	for i, txn := range []string{"T1", "T2"} {
		got, err := fixed.Invoke(ctx, &Request{Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		want, err := parsing.Invoke(ctx, &Request{Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "") != strings.Join(want, "") {
			t.Fatalf("invocation %d: shared template gave %v, per-call parse %v", i, got, want)
		}
		gotRead, err := fixedRead.Invoke(ctx, &Request{Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		wantRead, err := parsingRead.Invoke(ctx, &Request{Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(gotRead, "") != strings.Join(wantRead, "") {
			t.Fatalf("query %d: shared template gave %v, per-call parse %v", i, gotRead, wantRead)
		}
	}
	a, _ := shared.Get("ATPList.xml")
	b, _ := perCall.Get("ATPList.xml")
	if !a.Equal(b) {
		t.Fatal("documents differ after the same invocations")
	}
	invoke := func(svc Service) func() {
		return func() {
			if _, err := svc.Invoke(ctx, &Request{Txn: "T3"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if once, each := testing.AllocsPerRun(20, invoke(fixed)), testing.AllocsPerRun(20, invoke(parsing)); once >= each {
		t.Fatalf("update: %v allocations per call with the shared template, %v parsing per call", once, each)
	}
	if once, each := testing.AllocsPerRun(20, invoke(fixedRead)), testing.AllocsPerRun(20, invoke(parsingRead)); once >= each {
		t.Fatalf("query: %v allocations per call with the shared template, %v parsing per call", once, each)
	}
}

// TestFixedTemplateConcurrentInvocations shares one parsed template among
// concurrent invocations (run it under -race).
func TestFixedTemplateConcurrentInvocations(t *testing.T) {
	store := newStore(t)
	update := NewUpdateService(Descriptor{Name: "setPoints"}, store, `<action type="replace"><data><points>1</points></data>`+
		`<location>Select p/points from p in ATPList//player where p/name/lastname = "Federer";</location></action>`, nil)
	read := NewQueryService(Descriptor{Name: "getPoints"}, store,
		`Select p/points from p in ATPList//player where p/name/lastname = "Federer"`, nil, axml.Lazy)
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func() {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				req := &Request{Txn: fmt.Sprintf("T%d-%d", g, i)}
				if _, err = update.Invoke(context.Background(), req); err == nil {
					_, err = read.Invoke(context.Background(), req)
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
