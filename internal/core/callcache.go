// Semantic materialization cache with singleflight call dedupe.
//
// The paper's lazy evaluation re-invokes a remote service on every
// materialization of an <axml:sc> node, even though the embedded frequency
// attribute already defines a staleness contract (§3.1): a call whose
// frequency is 1h promises that any result younger than an hour is
// acceptable. The cache exploits exactly that contract — entries are keyed
// on (service, canonicalized params, freshness window) and served only
// within their window, so correctness never depends on invalidation
// reaching every copy.
//
// Two dedupe scopes share this structure:
//
//   - process-local: concurrent materializations of the same key elect one
//     leader via a singleflight; followers wait on the leader's flight and
//     reuse its fragments, so N concurrent local materializations perform
//     exactly one upstream invocation;
//   - cluster-wide: completed and in-flight entries are advertised through
//     the gossip replica catalog (internal/membership), and a peer about to
//     invoke first fetches the cached result from the advertising owner
//     over a KindCacheFetch message (fetchFromOwner, handleCacheFetch).
//
// Invalidation is best-effort on top of the window contract: local writes
// and compensations touching a document drop every entry recorded against
// it and withdraw its advertisements; remote copies simply age out.
package core

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
)

// defaultCacheCapacity bounds completed entries when WithCallCache is
// enabled with a zero capacity.
const defaultCacheCapacity = 1024

// cacheKey canonicalizes one invocation into its cache identity. Parameters
// are sorted by name so textual reorderings of the same call collide, and
// the freshness window is part of the key: a caller demanding 1s freshness
// must never be served an entry cached under a 1h contract.
func cacheKey(service string, params []axml.Param, window time.Duration) string {
	var b strings.Builder
	b.WriteString(service)
	b.WriteByte('|')
	if len(params) > 0 {
		ps := make([]string, 0, len(params))
		for _, p := range params {
			ps = append(ps, p.Name+"="+p.Value)
		}
		sort.Strings(ps)
		b.WriteString(strings.Join(ps, "&"))
	}
	b.WriteByte('|')
	b.WriteString(window.String())
	return b.String()
}

// cacheEntry is one completed materialization result.
type cacheEntry struct {
	service   string
	fragments []string
	fetched   time.Time
	window    time.Duration
	docs      []string // documents whose writes invalidate this entry
}

func (e *cacheEntry) fresh(now time.Time) bool {
	return now.Sub(e.fetched) <= e.window
}

// flight is one in-progress upstream invocation. Followers wait on done;
// the leader fills fragments/err before closing it.
type flight struct {
	done      chan struct{}
	fragments []string
	err       error
}

// callCache is the process-local half of the materialization cache. All
// methods are safe for concurrent use; none blocks while holding the lock
// (waiting on a flight happens outside it).
type callCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	flights map[string]*flight
	byDoc   map[string]map[string]bool // doc name → keys recorded against it
}

func newCallCache(capacity int) *callCache {
	if capacity <= 0 {
		capacity = defaultCacheCapacity
	}
	return &callCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		flights: make(map[string]*flight),
		byDoc:   make(map[string]map[string]bool),
	}
}

// lookup returns the fragments of a fresh entry, or ok=false.
func (c *callCache) lookup(key string, now time.Time) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if !e.fresh(now) {
		c.removeLocked(key, e)
		return nil, false
	}
	return e.fragments, true
}

// peek returns the full entry if present and fresh — the owner side of a
// cache fetch needs the fetch time and window, not just the fragments.
func (c *callCache) peek(key string, now time.Time) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.fresh(now) {
		return nil, false
	}
	cp := *e
	return &cp, true
}

// put stores a completed entry, evicting the stalest entry when over
// capacity. Capacity-evicted keys are returned so the peer can withdraw
// their advertisements.
func (c *callCache) put(key string, e *cacheEntry) (evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.unindexLocked(key, old)
	}
	c.entries[key] = e
	for _, d := range e.docs {
		if c.byDoc[d] == nil {
			c.byDoc[d] = make(map[string]bool)
		}
		c.byDoc[d][key] = true
	}
	for len(c.entries) > c.cap {
		var oldestKey string
		var oldest *cacheEntry
		for k, cand := range c.entries {
			if k == key {
				continue
			}
			if oldest == nil || cand.fetched.Before(oldest.fetched) {
				oldestKey, oldest = k, cand
			}
		}
		if oldest == nil {
			break
		}
		c.removeLocked(oldestKey, oldest)
		evicted = append(evicted, oldestKey)
	}
	return evicted
}

// begin elects the caller as leader for key when no flight exists; a
// follower receives the existing flight to wait on.
func (c *callCache) begin(key string) (fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.flights[key]; ok {
		return fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return fl, true
}

// inflight returns the current flight for key, if any, without creating
// one (the fetch handler uses it).
func (c *callCache) inflight(key string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fl, ok := c.flights[key]
	return fl, ok
}

// finish completes the leader's flight, releasing every waiter.
func (c *callCache) finish(key string, fl *flight, fragments []string, err error) {
	c.mu.Lock()
	fl.fragments, fl.err = fragments, err
	if c.flights[key] == fl {
		delete(c.flights, key)
	}
	c.mu.Unlock()
	close(fl.done)
}

// wait blocks until the flight completes or the bound expires. A timeout
// is not an error for the caller — it falls through to its own upstream
// invocation without registering a new flight.
func (c *callCache) wait(ctx context.Context, fl *flight, bound time.Duration) ([]string, error, bool) {
	timer := time.NewTimer(bound)
	defer timer.Stop()
	select {
	case <-fl.done:
		return fl.fragments, fl.err, true
	case <-ctx.Done():
		return nil, ctx.Err(), false
	case <-timer.C:
		return nil, nil, false
	}
}

// invalidateDoc drops every entry recorded against doc and returns their
// keys so advertisements can be withdrawn.
func (c *callCache) invalidateDoc(doc string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byDoc[doc]
	if len(keys) == 0 {
		return nil
	}
	out := make([]string, 0, len(keys))
	for k := range keys {
		if e, ok := c.entries[k]; ok {
			c.removeLocked(k, e)
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// removeLocked drops one entry and its doc-index references.
func (c *callCache) removeLocked(key string, e *cacheEntry) {
	delete(c.entries, key)
	c.unindexLocked(key, e)
}

func (c *callCache) unindexLocked(key string, e *cacheEntry) {
	for _, d := range e.docs {
		if set := c.byDoc[d]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(c.byDoc, d)
			}
		}
	}
}

// entryCount and inflightCount feed the observability gauges.
func (c *callCache) entryCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.entries))
}

func (c *callCache) inflightCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.flights))
}

// cacheSpec is the cache identity of one cacheable invocation: its key, the
// freshness window the result may be served under, and the documents whose
// writes invalidate it.
type cacheSpec struct {
	key    string
	window time.Duration
	docs   []string
}

// cacheSpecFor decides whether sc's invocation is cacheable. The frequency
// attribute is the staleness contract (§3.1): a declared frequency is the
// window; without one, Options.CacheTTL applies (zero = uncached). Calls to
// locally-known update or continuous services are never cached — updates
// have effects that must happen, streams are not a reusable value.
func (p *Peer) cacheSpecFor(sc *axml.ServiceCall, params []axml.Param) (cacheSpec, bool) {
	if p.cache == nil {
		return cacheSpec{}, false
	}
	window, declared := sc.Frequency()
	if !declared {
		window = p.opts.CacheTTL
	}
	if window <= 0 {
		return cacheSpec{}, false
	}
	service := sc.Service()
	docs := make([]string, 0, 2)
	if doc := sc.Node().Document(); doc != nil && doc.Name() != "" {
		docs = append(docs, doc.Name())
	}
	if svc, ok := p.registry.Get(service); ok {
		desc := svc.Descriptor()
		switch desc.Kind {
		case services.KindUpdate, services.KindContinuous:
			return cacheSpec{}, false
		}
		if desc.TargetDocument != "" && (len(docs) == 0 || docs[0] != desc.TargetDocument) {
			docs = append(docs, desc.TargetDocument)
		}
	}
	return cacheSpec{key: cacheKey(service, params, window), window: window, docs: docs}, true
}

// cachePut stores a completed entry and keeps the gossip catalog in step:
// the key is advertised (replacing any in-flight advertisement) and
// capacity-evicted keys are withdrawn.
func (p *Peer) cachePut(spec cacheSpec, e *cacheEntry) {
	evicted := p.cache.put(spec.key, e)
	if m := p.opts.Membership; m != nil {
		m.AnnounceCall(spec.key, e.service, e.fetched, e.window)
		for _, k := range evicted {
			m.WithdrawCall(k)
		}
	}
}

// fetchFromOwner asks peers advertising spec.key in the gossip catalog for
// their cached result (cluster-scope dedupe). The advertised fetch time is
// re-checked against the local clock before the copy is trusted; a stale,
// withdrawn or unreachable owner is skipped and the next one tried.
func (p *Peer) fetchFromOwner(txc *Context, spec cacheSpec, service string) (*cacheEntry, bool) {
	m := p.opts.Membership
	if m == nil {
		return nil, false
	}
	for _, owner := range m.CallOwners(spec.key) {
		if owner == p.id {
			continue
		}
		sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindCacheFetch, service)
		sp.SetTarget(string(owner))
		reply, err := p.transport.Request(txc.ctxForCalls(), owner, &p2p.Message{
			Kind: p2p.KindCacheFetch, Txn: txc.ID, Subject: service,
			Payload: encode(&CacheFetchRequest{Key: spec.key, Service: service}),
		})
		if err != nil || reply == nil || reply.Err != "" {
			sp.SetAttr("miss", "unreachable")
			sp.End(ErrCode(err), err)
			continue
		}
		var resp CacheFetchResponse
		if derr := decode(reply.Payload, &resp); derr != nil || !resp.Found {
			sp.SetAttr("miss", "not-found")
			sp.End("", nil)
			continue
		}
		fetched := time.Unix(0, resp.FetchedUnixNano)
		window := time.Duration(resp.WindowNanos)
		if window <= 0 || time.Since(fetched) > window {
			sp.SetAttr("miss", "stale")
			sp.End("", nil)
			continue
		}
		p.metrics.CacheFetches.Add(1)
		sp.End("", nil)
		return &cacheEntry{
			service: service, fragments: resp.Fragments,
			fetched: fetched, window: window, docs: spec.docs,
		}, true
	}
	return nil, false
}

// handleCacheFetch serves a cached materialization result to a peer that
// found this peer's advertisement in the gossip catalog. A request racing
// an in-flight invocation of the same key waits for it (bounded by the
// lock timeout) instead of reporting a miss.
func (p *Peer) handleCacheFetch(msg *p2p.Message) (*p2p.Message, error) {
	var req CacheFetchRequest
	if err := decode(msg.Payload, &req); err != nil {
		return nil, err
	}
	resp := &CacheFetchResponse{Key: req.Key, Service: req.Service}
	if p.cache != nil {
		e, ok := p.cache.peek(req.Key, time.Now())
		if !ok {
			if fl, inflight := p.cache.inflight(req.Key); inflight {
				ctx, cancel := context.WithTimeout(context.Background(), p.opts.LockTimeout)
				_, _, _ = p.cache.wait(ctx, fl, p.opts.LockTimeout)
				cancel()
				e, ok = p.cache.peek(req.Key, time.Now())
			}
		}
		if ok {
			resp.Found = true
			resp.Fragments = e.fragments
			resp.FetchedUnixNano = e.fetched.UnixNano()
			resp.WindowNanos = int64(e.window)
		}
	}
	return &p2p.Message{Kind: p2p.KindCacheFetch, Txn: msg.Txn, Subject: req.Service,
		Payload: encode(resp)}, nil
}

// invalidateDocCache drops cache entries recorded against the named
// documents and withdraws their gossip advertisements. Remote copies are
// not chased: their staleness stays bounded by the freshness window the
// calls themselves declared.
func (p *Peer) invalidateDocCache(docs ...string) {
	if p.cache == nil {
		return
	}
	m := p.opts.Membership
	for _, doc := range docs {
		if doc == "" {
			continue
		}
		// Actions reference documents by query root ("A") while the cache
		// indexes entries under the stored name ("A.xml"); canonicalize so
		// both forms hit the same index.
		if d, ok := p.store.Get(doc); ok {
			doc = d.Name()
		}
		for _, key := range p.cache.invalidateDoc(doc) {
			p.metrics.CacheInvalidations.Add(1)
			if m != nil {
				m.WithdrawCall(key)
			}
		}
	}
}
