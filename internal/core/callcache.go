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
//     over a KindCacheFetch message (recovery.go).
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
