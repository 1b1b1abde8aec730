package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/membership"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// countingProvider joins the network as PR hosting a "quote" service that
// counts upstream invocations and optionally delays, so cache tests can
// assert exactly how many calls escaped the cache.
func countingProvider(net *p2p.Network, delay time.Duration) (*Peer, *atomic.Int32) {
	pr := NewPeer(net.Join("PR"), wal.NewMemory(), Options{})
	var calls atomic.Int32
	pr.HostService(services.NewFuncService(
		services.Descriptor{Name: "quote", ResultName: "q"},
		func(cctx contextT, params map[string]string) ([]string, error) {
			calls.Add(1)
			if delay > 0 {
				time.Sleep(delay)
			}
			return []string{`<q>99</q>`}, nil
		}))
	return pr, &calls
}

// quoteDoc is a document whose materialization invokes quote@PR under a
// one-hour freshness window — the same semantic cache key in every test.
const quoteDoc = `<Q><axml:sc mode="replace" methodName="quote" serviceURL="PR" frequency="1h"/></Q>`

// quoteCall is one call of quote@PR with parameter k under a one-hour
// freshness window: a distinct cache key per k.
func quoteCall(k int) string {
	return fmt.Sprintf(`<axml:sc mode="replace" methodName="quote" serviceURL="PR" frequency="1h">`+
		`<axml:params><axml:param name="k"><axml:value>%d</axml:value></axml:param></axml:params></axml:sc>`, k)
}

// quoteInputs are the documents the cache-parity tests run on: one call,
// and two calls with distinct keys that the store invokes as one batch. The
// cache must treat every call of a batch as it treats a lone call, so the
// per-call counts of each test are the same for both.
var quoteInputs = []struct {
	name  string
	doc   string
	calls int32
}{
	{"one-call", quoteDoc, 1},
	{"two-call", "<Q>" + quoteCall(1) + quoteCall(2) + "</Q>", 2},
}

// materializeQuote runs one transaction that materializes every call of the
// named document and commits.
func materializeQuote(t *testing.T, p *Peer, doc string) {
	t.Helper()
	txc := p.Begin()
	if _, err := p.Store().MaterializeAll(txc.ID, doc, p); err != nil {
		t.Fatalf("materialize %s: %v", doc, err)
	}
	if err := p.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
}

// TestCacheHitAcrossTransactions: the second materialization of the same
// call (same service, params, window) is served from the cache — one
// upstream invocation total.
func TestCacheHitAcrossTransactions(t *testing.T) {
	net := p2p.NewNetwork(0)
	_, calls := countingProvider(net, 0)
	ap := NewPeer(net.Join("AP1"), wal.NewMemory(), Options{CallCacheCapacity: 16})
	for _, doc := range []string{"A.xml", "B.xml"} {
		if err := ap.HostDocument(doc, quoteDoc); err != nil {
			t.Fatal(err)
		}
		materializeQuote(t, ap, doc)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("upstream invocations = %d, want 1", n)
	}
	snap := ap.Metrics().Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

// TestCacheSingleflightConcurrent: two goroutines materialize the identical
// embedded calls at the same peer concurrently (in different documents, so
// document locks don't serialize them). Singleflight must collapse them
// into exactly one upstream invocation per call. Run under -race in CI.
func TestCacheSingleflightConcurrent(t *testing.T) {
	for _, in := range quoteInputs {
		t.Run(in.name, func(t *testing.T) {
			net := p2p.NewNetwork(0)
			_, calls := countingProvider(net, 50*time.Millisecond)
			ap := NewPeer(net.Join("AP1"), wal.NewMemory(), Options{CallCacheCapacity: 16})
			docs := []string{"A.xml", "B.xml"}
			for _, doc := range docs {
				if err := ap.HostDocument(doc, in.doc); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for _, doc := range docs {
				wg.Add(1)
				go func(doc string) {
					defer wg.Done()
					materializeQuote(t, ap, doc)
				}(doc)
			}
			wg.Wait()
			if n := calls.Load(); n != in.calls {
				t.Fatalf("upstream invocations = %d, want %d (singleflight)", n, in.calls)
			}
			// The follower waits on the leader's first flight; by the time it
			// reaches a later call, that call's flight may already be cached.
			snap := ap.Metrics().Snapshot()
			if snap.CacheWaits < 1 || snap.CacheWaits+snap.CacheHits != int64(in.calls) {
				t.Fatalf("cache waits/hits = %d/%d, want at least 1 wait and %d in all",
					snap.CacheWaits, snap.CacheHits, in.calls)
			}
			if snap.CacheMisses != int64(in.calls) || snap.CacheFetches != 0 {
				t.Fatalf("cache misses/fetches = %d/%d, want %d/0", snap.CacheMisses, snap.CacheFetches, in.calls)
			}
			for _, doc := range docs {
				d, _ := ap.Store().Snapshot(doc)
				if got := xmldom.MarshalString(d.Root()); strings.Count(got, "99") != int(in.calls) {
					t.Fatalf("%s missing materialized results: %s", doc, got)
				}
			}
		})
	}
}

// TestCacheClusterFetch: AP2 materializes and advertises the cached calls
// through gossip; AP3 then materializes the same calls and fetches AP2's
// results over KindCacheFetch instead of re-invoking the provider.
func TestCacheClusterFetch(t *testing.T) {
	for _, in := range quoteInputs {
		t.Run(in.name, func(t *testing.T) {
			net := p2p.NewNetwork(0)
			_, calls := countingProvider(net, 0)

			mk := func(id p2p.PeerID, seed p2p.PeerID) (*Peer, *membership.Gossip) {
				tr := net.Join(id)
				g := membership.New(tr, membership.Config{Seeds: []p2p.PeerID{seed}})
				p := NewPeer(tr, wal.NewMemory(), Options{Membership: g, CallCacheCapacity: 16})
				return p, g
			}
			ap2, g2 := mk("AP2", "AP3")
			ap3, g3 := mk("AP3", "AP2")
			for _, p := range []*Peer{ap2, ap3} {
				if err := p.HostDocument("Q.xml", in.doc); err != nil {
					t.Fatal(err)
				}
			}

			materializeQuote(t, ap2, "Q.xml")
			if n := calls.Load(); n != in.calls {
				t.Fatalf("upstream invocations after AP2 = %d, want %d", n, in.calls)
			}
			// Two protocol periods propagate AP2's call advertisements to AP3.
			for i := 0; i < 3; i++ {
				g2.Tick(bg)
				g3.Tick(bg)
			}

			materializeQuote(t, ap3, "Q.xml")
			if n := calls.Load(); n != in.calls {
				t.Fatalf("upstream invocations after AP3 = %d, want %d (cluster fetch)", n, in.calls)
			}
			s2, s3 := ap2.Metrics().Snapshot(), ap3.Metrics().Snapshot()
			if s2.CacheMisses != int64(in.calls) || s2.CacheFetches != 0 {
				t.Fatalf("AP2 cache misses/fetches = %d/%d, want %d/0", s2.CacheMisses, s2.CacheFetches, in.calls)
			}
			if s3.CacheFetches != int64(in.calls) || s3.CacheMisses != 0 {
				t.Fatalf("AP3 cache fetches/misses = %d/%d, want %d/0", s3.CacheFetches, s3.CacheMisses, in.calls)
			}
		})
	}
}

// TestCacheInvalidationOnWrite: a write to a document a cached call
// materialized into withdraws the entry, so the next materialization goes
// upstream again.
func TestCacheInvalidationOnWrite(t *testing.T) {
	net := p2p.NewNetwork(0)
	_, calls := countingProvider(net, 0)
	ap := NewPeer(net.Join("AP1"), wal.NewMemory(), Options{CallCacheCapacity: 16})
	if err := ap.HostDocument("A.xml", quoteDoc); err != nil {
		t.Fatal(err)
	}
	materializeQuote(t, ap, "A.xml")

	// A write into the caller document invalidates the cached entry.
	txc := ap.Begin()
	loc, err := axml.ParseQuery(`Select d from d in A`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Exec(bg, txc, axml.NewInsert(loc, `<note/>`)); err != nil {
		t.Fatal(err)
	}
	if err := ap.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	if inv := ap.Metrics().Snapshot().CacheInvalidations; inv == 0 {
		t.Fatal("write did not invalidate the cached call")
	}

	if err := ap.HostDocument("B.xml", quoteDoc); err != nil {
		t.Fatal(err)
	}
	materializeQuote(t, ap, "B.xml")
	if n := calls.Load(); n != 2 {
		t.Fatalf("upstream invocations = %d, want 2 after invalidation", n)
	}
}

// TestCacheKeyCanonicalization: parameter order does not split the cache.
func TestCacheKeyCanonicalization(t *testing.T) {
	a := cacheKey("svc", []axml.Param{{Name: "x", Value: "1"}, {Name: "y", Value: "2"}}, time.Hour)
	b := cacheKey("svc", []axml.Param{{Name: "y", Value: "2"}, {Name: "x", Value: "1"}}, time.Hour)
	if a != b {
		t.Fatalf("key differs on param order:\n%s\n%s", a, b)
	}
	c := cacheKey("svc", []axml.Param{{Name: "x", Value: "1"}, {Name: "y", Value: "2"}}, time.Minute)
	if a == c {
		t.Fatal("key ignores the freshness window")
	}
}
