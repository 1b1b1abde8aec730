package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// jitteryMat invokes every call of a batch on a goroutine of its own after
// a per-service delay, so the calls complete in scrambled order.
type jitteryMat struct {
	delays []time.Duration
}

func (m *jitteryMat) Invoke(txn string, calls []*axml.ServiceCall, params [][]axml.Param) []axml.InvokeOutcome {
	out := make([]axml.InvokeOutcome, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idx int
			fmt.Sscanf(call.Service(), "svc%d", &idx)
			if idx >= 1 && idx <= len(m.delays) {
				time.Sleep(m.delays[idx-1])
			}
			out[i].Fragments = []string{fmt.Sprintf("<r%d>new</r%d>", idx, idx)}
		}()
	}
	wg.Wait()
	return out
}

func (m *jitteryMat) ResultName(service string) string {
	return "r" + strings.TrimPrefix(service, "svc")
}

// TestParallelMaterializationCompensates materializes a replace-mode
// document as one batch whose calls complete in jittery order, then runs
// the core compensation machinery over the resulting log: the document must
// be restored exactly, because the log is order-identical to sequential
// execution (§3.1 dynamic compensation depends on that order).
func TestParallelMaterializationCompensates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const calls = 8
	for trial := 0; trial < 3; trial++ {
		log := wal.NewMemory()
		s := axml.NewStore(log)
		var b strings.Builder
		b.WriteString("<D>")
		for i := 1; i <= calls; i++ {
			fmt.Fprintf(&b, `<axml:sc methodName="svc%d" mode="replace"><r%d>old</r%d></axml:sc>`, i, i, i)
		}
		b.WriteString("</D>")
		if _, err := s.AddParsed("D.xml", b.String()); err != nil {
			t.Fatal(err)
		}
		before, _ := s.Snapshot("D.xml")
		mat := &jitteryMat{}
		for i := 0; i < calls; i++ {
			mat.delays = append(mat.delays, time.Duration(rng.Intn(2000))*time.Microsecond)
		}
		if _, err := s.MaterializeAll("T", "D.xml", mat); err != nil {
			t.Fatal(err)
		}
		if _, err := compensateStore(s, "T"); err != nil {
			t.Fatal(err)
		}
		after, _ := s.Get("D.xml")
		if !after.Equal(before) {
			t.Fatalf("trial %d: compensation did not restore document:\n got: %s\nwant: %s",
				trial, xmldom.MarshalString(after.Root()), xmldom.MarshalString(before.Root()))
		}
	}
}
