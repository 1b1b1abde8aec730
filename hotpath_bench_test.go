package axmltx

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/sim"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Hot-path micro-benchmarks for the PR 1 optimisations: parallel
// materialization, WAL group commit, pooled serialization. Run with
// `go test -bench 'ParallelMaterialize|WALGroupCommit|SerializeAllocs' -benchmem .`

// BenchmarkParallelMaterialize compares one transaction of an origin peer
// that materializes 8 remote calls over 2ms links and commits: 8 one-call
// documents one after another, against one document whose 8 calls are
// invoked as one batch (sim.MaterializeRig). ns/op includes the commit;
// materialize-ns/op does not.
func BenchmarkParallelMaterialize(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		batched bool
	}{{"sequential", false}, {"batched", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			rig := sim.NewMaterializeRig(8, 2*time.Millisecond, cfg.batched)
			b.ReportAllocs()
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				took, err := rig.Materialize()
				if err != nil {
					b.Fatal(err)
				}
				total += took
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "materialize-ns/op")
		})
	}
}

// BenchmarkWALGroupCommit measures concurrent transaction throughput of
// the durable log. One op is one durable transaction (sim.AppendDurableTxn:
// four effect records and a commit). RunParallel spreads writers over
// GOMAXPROCS goroutines, the multi-writer shape group commit amortizes.
func BenchmarkWALGroupCommit(b *testing.B) {
	log, err := wal.OpenDir(b.TempDir(), wal.SegmentOptions{})
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
