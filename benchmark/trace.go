package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// Layers a span's self time is charged to. A layer is a module of the
// repository; the write-ahead log is split by what the call waits for.
var shareLayers = []string{"client", "core", "p2p_transit", "axml", "wal_append", "wal_sync", "wal_read"}

func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		return "client"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "p2p."):
		return "p2p_transit"
	case strings.HasPrefix(name, "axml."):
		return "axml"
	case name == "wal.append":
		return "wal_append"
	case name == "wal.sync":
		return "wal_sync"
	default:
		return "wal_read"
	}
}

// analysis is the span forest of a traced window and what it adds up to.
type analysis struct {
	spans   []span
	layerNs map[string]int64           // self time on the blocking path, per layer
	rootNs  int64                      // summed latency of the traced operations
	orphans int                        // non-root spans with no parent inside a traced transaction
	dur     map[string][]time.Duration // span name → durations
	self    map[string][]time.Duration // span name → self times (duration minus children's union)
	transit []time.Duration            // per request: round trip minus the callee's handler span
}

func isHandler(s *span) bool { return strings.HasPrefix(s.Name, "core.handle.") }

// compatible reports whether a may be an ancestor of s as far as their
// transactions tell: equal, or one of them has none of its own.
func compatible(s, a *span) bool { return s.Txn == a.Txn || s.Txn == "" || a.Txn == "" }

// analyze links every span to its parent and accounts self times. since is
// when tracing was switched on: transactions already running then have
// spans missing and are left out.
//
// A span's parent is the innermost span on the same peer that encloses it
// in time and belongs to the same transaction; a span that knows no
// transaction (Store.Apply's observer, Sync, fragment fetches) prefers the
// enclosing span of its own goroutine and inherits the transaction. A
// handler span's parent is the matching Request span on the calling peer.
func analyze(spans []span, since int64) *analysis {
	a := &analysis{
		spans:   spans,
		layerNs: make(map[string]int64),
		dur:     make(map[string][]time.Duration),
		self:    make(map[string][]time.Duration),
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		sx, sy := &spans[order[x]], &spans[order[y]]
		if sx.Start != sy.Start {
			return sx.Start < sy.Start
		}
		return sx.End > sy.End
	})

	active := make(map[string][]int) // per peer: spans that may still enclose a later one
	for _, i := range order {
		s := &spans[i]
		live := active[s.Peer][:0]
		for _, j := range active[s.Peer] {
			if spans[j].End >= s.Start {
				live = append(live, j)
			}
		}
		if s.Name == "client.wait" {
			// Waiting to start is nobody's child and encloses nothing: it
			// overlaps the previous operation of its worker.
			active[s.Peer] = live
			continue
		}
		if s.Name != "client.txn" && !isHandler(s) {
			s.Parent = pickParent(spans, live, s)
			if s.Parent >= 0 && s.Txn == "" {
				s.Txn = spans[s.Parent].Txn
			}
		}
		active[s.Peer] = append(live, i)
	}

	// Handlers: the request on the caller with the same endpoints, kind,
	// transaction and subject that encloses the handler span.
	type msgKey struct{ from, to, kind, txn, subject string }
	requests := make(map[msgKey][]int)
	for _, i := range order {
		if s := &spans[i]; s.Name == "p2p.request" {
			k := msgKey{s.From, s.To, s.Kind, s.Txn, s.Subject}
			requests[k] = append(requests[k], i)
		}
	}
	claimed := make(map[int]bool)
	for _, i := range order {
		h := &spans[i]
		if !isHandler(h) {
			continue
		}
		best := -1
		for _, j := range requests[msgKey{h.From, h.To, h.Kind, h.Txn, h.Subject}] {
			r := &spans[j]
			if !claimed[j] && r.Start <= h.Start && h.End <= r.End && (best < 0 || r.Start > spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			claimed[best] = true
			h.Parent = best
		}
	}

	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			spans[p].kids = append(spans[p].kids, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Start < since {
			continue
		}
		switch s.Name {
		case "client.txn":
			a.rootNs += s.dur()
			a.blocking(i, s.End)
		case "client.wait":
			a.rootNs += s.dur()
			a.layerNs["client"] += s.dur()
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Start < since {
			continue
		}
		a.dur[s.Name] = append(a.dur[s.Name], time.Duration(s.dur()))
		a.self[s.Name] = append(a.self[s.Name], time.Duration(s.dur()-a.covered(i)))
		if s.Name == "p2p.request" {
			t := s.dur()
			for _, k := range s.kids {
				t -= spans[k].dur()
			}
			a.transit = append(a.transit, time.Duration(t))
		}
		// A request or a local call with no parent hangs off nothing the
		// client waited for — unless a one-way message caused it.
		if s.Parent < 0 && !strings.HasPrefix(s.Name, "client.") && !isHandler(s) {
			a.orphans++
		}
	}
	return a
}

// pickParent chooses among the live spans of s's peer the innermost one
// enclosing s: first on s's own goroutine, then of s's own transaction,
// then any whose transaction does not contradict.
func pickParent(spans []span, live []int, s *span) int {
	rules := []func(a *span) bool{
		func(a *span) bool { return s.G != 0 && a.G == s.G && compatible(s, a) },
		func(a *span) bool { return s.Txn != "" && a.Txn == s.Txn },
		func(a *span) bool { return s.Txn == "" || a.Txn == "" },
	}
	for _, ok := range rules {
		best := -1
		for _, j := range live {
			c := &spans[j]
			if c.End < s.End || !mayEnclose(c) || !ok(c) {
				continue
			}
			if best < 0 || c.Start > spans[best].Start || (c.Start == spans[best].Start && c.End < spans[best].End) {
				best = j
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// mayEnclose reports whether c can have children on its own peer. Log
// calls are leaves, and a message span's only child is the handler on the
// other peer: two requests of one materialization round overlap without
// either causing the other.
func mayEnclose(c *span) bool {
	return !strings.HasPrefix(c.Name, "wal.") && !strings.HasPrefix(c.Name, "p2p.")
}

// blocking walks span i's blocking path backwards from hi, charging each
// span's self time to its layer. Where children overlap (parallel
// invocations) only the one that finishes last is followed at each
// instant: a result that waits for parallel parts waits for the slowest.
func (a *analysis) blocking(i int, hi int64) {
	s := &a.spans[i]
	kids := append([]int(nil), s.kids...)
	sort.Slice(kids, func(x, y int) bool { return a.spans[kids[x]].End > a.spans[kids[y]].End })
	t := hi
	var self int64
	for _, k := range kids {
		c := &a.spans[k]
		if c.Start >= t {
			continue
		}
		end := c.End
		if end > t {
			end = t
		}
		self += t - end
		a.blocking(k, end)
		t = c.Start
		if t < s.Start {
			t = s.Start
		}
	}
	if t > s.Start {
		self += t - s.Start
	}
	a.layerNs[layerOf(s.Name)] += self
}

// covered is the length of the union of span i's children's intervals.
func (a *analysis) covered(i int) int64 {
	kids := a.spans[i].kids
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for n, k := range kids {
		iv[n] = [2]int64{a.spans[k].Start, a.spans[k].End}
	}
	sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// writeSpans writes one span per line, parents by line index.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
