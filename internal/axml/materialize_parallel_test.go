package axml

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// tableResults answers svcN with <rN>new</rN>.
func tableResults(call *ServiceCall) ([]string, error) {
	var n int
	if _, err := fmt.Sscanf(call.Service(), "svc%d", &n); err != nil {
		return nil, fmt.Errorf("no such service %q", call.Service())
	}
	return []string{fmt.Sprintf("<r%d>new</r%d>", n, n)}, nil
}

func tableResultName(service string) string { return "r" + strings.TrimPrefix(service, "svc") }

// sequentialMaterializer invokes a batch one call at a time, in order.
type sequentialMaterializer struct{}

func (sequentialMaterializer) Invoke(_ string, calls []*ServiceCall, params [][]Param) []InvokeOutcome {
	return InvokeEach(calls, params, func(sc *ServiceCall, _ []Param) ([]string, error) { return tableResults(sc) })
}

func (sequentialMaterializer) ResultName(service string) string { return tableResultName(service) }

// scrambledMaterializer invokes every call of a batch on a goroutine of its
// own after a random delay, so the calls complete in scrambled order — the
// adversarial schedule for the determinism guarantee.
type scrambledMaterializer struct{ rng *rand.Rand }

func (m scrambledMaterializer) Invoke(_ string, calls []*ServiceCall, params [][]Param) []InvokeOutcome {
	out := make([]InvokeOutcome, len(calls))
	var wg sync.WaitGroup
	for i, sc := range calls {
		d := time.Duration(m.rng.Intn(2000)) * time.Microsecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(d)
			out[i].Fragments, out[i].Err = tableResults(sc)
		}()
	}
	wg.Wait()
	return out
}

func (scrambledMaterializer) ResultName(service string) string { return tableResultName(service) }

// renderLog flattens a transaction's WAL records into comparable strings.
func renderLog(log wal.Log, txn string) []string {
	var out []string
	for _, r := range log.TxnRecords(txn) {
		out = append(out, fmt.Sprintf("%d %s %s %d %d %d %s %q %q",
			r.Type, r.Doc, r.Service, r.NodeID, r.ParentID, r.Pos, r.XML, r.OldText, r.NewText))
	}
	return out
}

// TestParallelMaterializationDeterministic runs the same lazy query once
// under a materializer that invokes a batch strictly in order and then
// under one that completes the batch's calls in scrambled order, and
// requires byte-identical WAL record sequences and document serializations:
// overlapping the invocations may never reorder effects.
func TestParallelMaterializationDeterministic(t *testing.T) {
	const calls = 8
	build := func() (*Store, *wal.MemoryLog) {
		log := wal.NewMemory()
		s := NewStore(log)
		var b strings.Builder
		b.WriteString("<D>")
		for i := 1; i <= calls; i++ {
			fmt.Fprintf(&b, `<axml:sc methodName="svc%d" mode="replace"><r%d>old</r%d></axml:sc>`, i, i, i)
		}
		b.WriteString("</D>")
		if _, err := s.AddParsed("D.xml", b.String()); err != nil {
			t.Fatal(err)
		}
		return s, log
	}
	query := mustParseQ(`Select d/r1, d/r2, d/r3, d/r4, d/r5, d/r6, d/r7, d/r8 from d in D`)

	seqStore, seqLog := build()
	if _, err := seqStore.Apply("T", query, sequentialMaterializer{}, Lazy); err != nil {
		t.Fatal(err)
	}
	wantLog := renderLog(seqLog, "T")
	seqDoc, _ := seqStore.Get("D.xml")
	wantXML := xmldom.MarshalString(seqDoc.Root())

	for trial := 0; trial < 5; trial++ {
		parStore, parLog := build()
		mat := scrambledMaterializer{rng: rand.New(rand.NewSource(int64(100 + trial)))}
		if _, err := parStore.Apply("T", query, mat, Lazy); err != nil {
			t.Fatal(err)
		}
		if got := renderLog(parLog, "T"); !reflect.DeepEqual(got, wantLog) {
			t.Fatalf("trial %d: parallel WAL diverged\n got: %v\nwant: %v", trial, got, wantLog)
		}
		parDoc, _ := parStore.Get("D.xml")
		if got := xmldom.MarshalString(parDoc.Root()); got != wantXML {
			t.Fatalf("trial %d: parallel document diverged\n got: %s\nwant: %s", trial, got, wantXML)
		}
	}
}

// Compensation equality follows from the log equality asserted above: the
// paper's dynamic compensation is a pure function of the WAL record
// sequence. The end-to-end restore check lives in internal/sim
// (TestParallelMaterializationCompensates), which can reach the core
// compensation machinery without an import cycle.
