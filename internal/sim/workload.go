package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/query"
	"axmltx/internal/wal"
)

// GenerateATPDoc builds an ATPList-style document with the given number of
// players; every withSC-th player embeds a getPoints service call carrying
// a previous result, mirroring the paper's §3.1 listing.
func GenerateATPDoc(players int, withSCEvery int) string {
	var b strings.Builder
	b.WriteString(`<ATPList date="18042005">`)
	for i := 1; i <= players; i++ {
		fmt.Fprintf(&b, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name><citizenship>C%d</citizenship>`, i, i, i, i%20)
		if withSCEvery > 0 && i%withSCEvery == 0 {
			fmt.Fprintf(&b, `<axml:sc mode="replace" methodName="getPoints" serviceURL="">`+
				`<axml:params><axml:param name="name"><axml:value>F%d L%d</axml:value></axml:param></axml:params>`+
				`<points>%d</points></axml:sc>`, i, i, 100+i)
		}
		b.WriteString(`</player>`)
	}
	b.WriteString(`</ATPList>`)
	return b.String()
}

// tableMaterializer serves getPoints-style calls from a counter, so every
// materialization changes the document (replace mode).
type tableMaterializer struct {
	calls int
}

func (m *tableMaterializer) Invoke(txn string, calls []*axml.ServiceCall, params [][]axml.Param) []axml.InvokeOutcome {
	return axml.InvokeEach(calls, params, func(*axml.ServiceCall, []axml.Param) ([]string, error) {
		m.calls++
		return []string{fmt.Sprintf("<points>%d</points>", 500+m.calls)}, nil
	})
}

func (m *tableMaterializer) ResultName(service string) string {
	if service == "getPoints" {
		return "points"
	}
	return ""
}

// OpsSpec configures the E1 operation-mix workload over a generated
// document. Fractions are relative weights; Ops operations are drawn with
// replacement.
type OpsSpec struct {
	Players int
	Ops     int
	Insert  float64
	Delete  float64
	Replace float64
	Query   float64
	Seed    int64
}

// E1Result aggregates one E1 run.
type E1Result struct {
	Ops              int
	Inserts          int
	Deletes          int
	Replaces         int
	Queries          int
	LogRecords       int
	LogBytes         int
	AffectedNodes    int
	Materializations int
	// Restored reports whether compensation returned the document to its
	// initial state (dynamic compensation is always complete).
	Restored bool
	// StaticCompensable counts operations whose compensating operation
	// could have been declared before run time: only inserts qualify (a
	// location-scoped delete can undo them); deletes and replaces need the
	// logged before-image, and queries need the run-time materialization
	// set.
	StaticCompensable int
	// CompActions is the number of dynamically constructed compensating
	// operations.
	CompActions int
}

// RunE1 executes the operation mix in one transaction, compensates it, and
// reports the bookkeeping — experiment E1 (dynamic compensation).
func RunE1(spec OpsSpec) E1Result {
	rng := rand.New(rand.NewSource(spec.Seed))
	log := wal.NewMemory()
	store := axml.NewStore(log)
	doc, err := store.AddParsed("ATPList.xml", GenerateATPDoc(spec.Players, 3))
	if err != nil {
		panic(err)
	}
	snapshot := doc.Clone()
	mat := &tableMaterializer{}

	res := E1Result{Ops: spec.Ops}
	total := spec.Insert + spec.Delete + spec.Replace + spec.Query
	if total <= 0 {
		total, spec.Insert = 1, 1
	}
	const txn = "E1"
	insertedTitles := 0
	for i := 0; i < spec.Ops; i++ {
		player := 1 + rng.Intn(spec.Players)
		r := rng.Float64() * total
		var a *axml.Action
		switch {
		case r < spec.Insert:
			loc := mustQ(fmt.Sprintf(`Select p from p in ATPList//player where p/@rank = %d`, player))
			a = axml.NewInsert(loc, fmt.Sprintf(`<title n="%d"/>`, i))
			res.Inserts++
			res.StaticCompensable++
			insertedTitles++
		case r < spec.Insert+spec.Delete:
			// Delete a title if any exist (citizenship deletes would make
			// later replaces miss); otherwise insert one first.
			if insertedTitles == 0 {
				loc := mustQ(fmt.Sprintf(`Select p from p in ATPList//player where p/@rank = %d`, player))
				a = axml.NewInsert(loc, fmt.Sprintf(`<title n="pre%d"/>`, i))
				res.Inserts++
				res.StaticCompensable++
				insertedTitles++
			} else {
				a = axml.NewDelete(mustQ(`Select p//title from p in ATPList`))
				res.Deletes++
				insertedTitles = 0
			}
		case r < spec.Insert+spec.Delete+spec.Replace:
			loc := mustQ(fmt.Sprintf(`Select p/citizenship from p in ATPList//player where p/@rank = %d`, player))
			a = axml.NewReplace(loc, fmt.Sprintf(`<citizenship>X%d</citizenship>`, i))
			res.Replaces++
		default:
			loc := mustQ(fmt.Sprintf(`Select p/points from p in ATPList//player where p/@rank = %d`, player))
			a = axml.NewQuery(loc)
			res.Queries++
		}
		out, err := store.Apply(txn, a, mat, axml.Lazy)
		if err != nil {
			panic(fmt.Sprintf("sim: E1 op %d: %v", i, err))
		}
		res.AffectedNodes += out.AffectedNodes
	}
	res.Materializations = mat.calls
	for _, rec := range log.TxnRecords(txn) {
		res.LogRecords++
		res.LogBytes += len(rec.XML) + len(rec.OldText) + len(rec.NewText) + 32
	}
	res.CompActions = len(buildCompActions(log, txn))
	if _, err := compensateStore(store, txn); err != nil {
		panic(err)
	}
	live, _ := store.Get("ATPList.xml")
	res.Restored = live.Equal(snapshot)
	return res
}

// E2Result aggregates one lazy-vs-eager comparison.
type E2Result struct {
	EmbeddedCalls int
	QueryNeeds    int
	LazyInvoked   int
	EagerInvoked  int
	LazyAffected  int
	EagerAffected int
}

// RunE2 hosts a document with k embedded calls (distinct result names) and
// evaluates a query touching j of them, under lazy and under eager
// evaluation — experiment E2.
func RunE2(k, j int) E2Result {
	if j > k {
		j = k
	}
	build := func() (*axml.Store, *axml.Action, *countingMaterializer) {
		var b strings.Builder
		b.WriteString("<Doc>")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, `<axml:sc mode="replace" methodName="svc%d"><r%d>old</r%d></axml:sc>`, i, i, i)
		}
		b.WriteString("</Doc>")
		store := axml.NewStore(wal.NewMemory())
		if _, err := store.AddParsed("Doc.xml", b.String()); err != nil {
			panic(err)
		}
		var sel []string
		for i := 0; i < j; i++ {
			sel = append(sel, fmt.Sprintf("d/r%d", i))
		}
		q := mustQ("Select " + strings.Join(sel, ", ") + " from d in Doc")
		return store, axml.NewQuery(q), &countingMaterializer{}
	}

	res := E2Result{EmbeddedCalls: k, QueryNeeds: j}
	store, action, mat := build()
	out, err := store.Apply("E2L", action, mat, axml.Lazy)
	if err != nil {
		panic(err)
	}
	res.LazyInvoked = mat.calls
	res.LazyAffected = out.AffectedNodes

	store, action, mat = build()
	out, err = store.Apply("E2E", action, mat, axml.Eager)
	if err != nil {
		panic(err)
	}
	res.EagerInvoked = mat.calls
	res.EagerAffected = out.AffectedNodes
	return res
}

// countingMaterializer counts invocations.
type countingMaterializer struct{ calls int }

func (m *countingMaterializer) Invoke(txn string, calls []*axml.ServiceCall, params [][]axml.Param) []axml.InvokeOutcome {
	return axml.InvokeEach(calls, params, func(call *axml.ServiceCall, _ []axml.Param) ([]string, error) {
		m.calls++
		name := strings.TrimPrefix(call.Service(), "svc")
		return []string{fmt.Sprintf("<r%s>new</r%s>", name, name)}, nil
	})
}

func (m *countingMaterializer) ResultName(service string) string {
	return "r" + strings.TrimPrefix(service, "svc")
}

// mustQ parses a query literal.
func mustQ(src string) *query.Query {
	q, err := axml.ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// buildCompActions and compensateStore indirect through core so workload
// code reads at the same altitude as the experiment runners.
func buildCompActions(log wal.Log, txn string) []*axml.Action {
	return core.BuildCompensation(log, txn)
}

func compensateStore(store *axml.Store, txn string) (int, error) {
	return core.Compensate(store, txn)
}
