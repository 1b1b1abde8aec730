package axmltx

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/sim"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Hot-path micro-benchmarks for the PR 1 optimisations: parallel
// materialization, WAL group commit, pooled serialization. Run with
// `go test -bench 'ParallelMaterialize|WALGroupCommit|SerializeAllocs' -benchmem .`

// benchSlowMat simulates a remote provider with fixed latency; stateless,
// so safe under the store's overlapped invocations.
type benchSlowMat struct{ delay time.Duration }

func (m *benchSlowMat) Invoke(txn string, call *axml.ServiceCall, params []axml.Param) ([]string, error) {
	time.Sleep(m.delay)
	name := strings.TrimPrefix(call.Service(), "svc")
	return []string{fmt.Sprintf("<r%s>v</r%s>", name, name)}, nil
}

func (m *benchSlowMat) ResultName(service string) string {
	return "r" + strings.TrimPrefix(service, "svc")
}

func benchCallDoc(calls int) string {
	var b strings.Builder
	b.WriteString("<D>")
	for i := 1; i <= calls; i++ {
		fmt.Fprintf(&b, `<axml:sc methodName="svc%d" mode="replace"/>`, i)
	}
	b.WriteString("</D>")
	return b.String()
}

// BenchmarkParallelMaterialize compares one full materialization of a
// document with 8 embedded 2ms service calls, sequential vs pooled.
func BenchmarkParallelMaterialize(b *testing.B) {
	const calls = 8
	mat := &benchSlowMat{delay: 2 * time.Millisecond}
	for _, cfg := range []struct {
		name     string
		maxCalls int
	}{{"sequential", 1}, {"parallel8", calls}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := axml.NewStore(wal.NewMemory())
				if _, err := s.AddParsed("D.xml", benchCallDoc(calls)); err != nil {
					b.Fatal(err)
				}
				s.SetMaxConcurrentCalls(cfg.maxCalls)
				if _, err := s.MaterializeAll("B", "D.xml", mat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALGroupCommit compares concurrent transaction throughput of a
// file-backed log with per-append fsync vs group commit. One op is one
// durable transaction (sim.AppendDurableTxn: four effect records and a
// commit). RunParallel spreads writers over GOMAXPROCS goroutines, the
// multi-writer shape group commit amortizes.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mode wal.SyncMode
	}{{"syncEach", wal.SyncEach}, {"groupCommit", wal.SyncGroup}} {
		b.Run(cfg.name, func(b *testing.B) {
			log, err := wal.OpenFileWith(filepath.Join(b.TempDir(), "wal.log"), wal.FileOptions{Sync: cfg.mode})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			b.ReportAllocs()
			var txn atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := sim.AppendDurableTxn(log, fmt.Sprintf("T%d", txn.Add(1))); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkSerializeAllocs measures MarshalString over a mid-sized document;
// the pooled serialization buffers should keep allocs/op near one (the
// returned string itself).
func BenchmarkSerializeAllocs(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<ATPList>")
	for i := 1; i <= 200; i++ {
		fmt.Fprintf(&sb, `<player rank="%d"><name>Player %d</name><points>%d</points></player>`, i, i, 1000-i)
	}
	sb.WriteString("</ATPList>")
	doc, err := xmldom.ParseString("ATPList.xml", sb.String())
	if err != nil {
		b.Fatal(err)
	}
	root := doc.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xmldom.MarshalString(root)
	}
}
