// Package obs is the observability layer of the AXML transactional
// framework: structured tracing of the per-transaction invocation tree and
// a metrics exporter for the protocol counters and latency histograms.
//
// Every transaction produces a span tree mirroring the paper's active-peer
// list [AP1* → AP2 → …]: one span per Exec/Call, per remote invocation
// (client and server side), per compensation, retry, redirect and reuse of
// salvaged work. Spans carry the peer ID, service, a chain snapshot, the
// WAL LSN range the operation logged, and a typed outcome code, so the
// recovery decisions of §3.2–3.3 leave an inspectable event record instead
// of only counter increments.
//
// Sinks are pluggable: a lock-protected ring buffer (queryable from tests,
// cmd/axmlquery and the /trace HTTP endpoint), a JSONL file exporter, and
// fan-out to several sinks at once. The metrics side is a small
// Prometheus-text-format registry (counters, gauges, histograms) that
// core.Metrics and the engine's latency histograms register into.
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span kinds emitted by the engine. One kind per protocol event the paper
// distinguishes.
const (
	// KindTxn is the root span of a transaction at its origin peer,
	// spanning Begin to Commit/Abort.
	KindTxn = "txn"
	// KindExec covers one Peer.Exec (a local AXML action, including the
	// materialization it triggers).
	KindExec = "exec"
	// KindCall covers one top-level Peer.Call/CallAsync.
	KindCall = "call"
	// KindInvoke is the client side of one service invocation (local or
	// remote), including the network round trip.
	KindInvoke = "invoke"
	// KindServe is the participant side of an incoming invocation.
	KindServe = "serve"
	// KindRetry is one retry attempt of the nested recovery protocol
	// (§3.2), possibly against a replica provider.
	KindRetry = "retry"
	// KindRedirect is a result re-routed past a dead parent (§3.3 case b).
	KindRedirect = "redirect"
	// KindReuse marks salvaged work consumed instead of re-invocation
	// (§3.3: "passing the materialized results directly").
	KindReuse = "reuse"
	// KindCompensate is a compensation run: the local undo of an abort or
	// the execution of a shipped compensating-service definition.
	KindCompensate = "compensate"
	// KindCommit covers commit processing at a peer.
	KindCommit = "commit"
	// KindFragFetch is the client side of one fragment-fetch request (a
	// spine, or a batch of one holder's fragments) during sharded-document
	// assembly.
	KindFragFetch = "frag-fetch"
	// KindFragMigrate covers one heat-driven fragment migration (handoff to
	// the dominant caller, WAL-logged with compensation).
	KindFragMigrate = "frag-migrate"
	// KindAbort covers abort processing (including local compensation) at
	// a peer.
	KindAbort = "abort"
	// KindFault is an injected fault (internal/chaos): a message dropped,
	// delayed, duplicated or reordered, a peer crash/restart, or a
	// partition, parented under the span of the message it hit.
	KindFault = "fault"
	// KindMember is a membership state transition observed by the SWIM
	// failure detector (internal/membership): a peer joining, becoming
	// suspect, being declared dead, or refuting a false suspicion.
	KindMember = "member"
	// KindCompact is one WAL compaction: segments wholly covered by a
	// checkpoint were deleted (attrs carry removed/remaining counts).
	KindCompact = "wal-compact"
	// KindCacheHit marks a materialization served from the local call
	// cache within its freshness window — no invocation happened.
	KindCacheHit = "cache-hit"
	// KindCacheMiss marks a materialization that went upstream because no
	// fresh cached result or live advertisement existed.
	KindCacheMiss = "cache-miss"
	// KindCacheWait marks a materialization that waited on a concurrent
	// in-flight invocation of the same key (singleflight follower).
	KindCacheWait = "cache-wait"
	// KindCacheFetch marks a cached result fetched from the advertising
	// peer (cluster-scope dedupe) instead of re-invoking upstream.
	KindCacheFetch = "cache-fetch"
)

// Outcome values.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// Span is one completed node of a transaction's trace. The transaction ID
// doubles as the trace ID; span IDs are "<peer>#<seq>" and therefore unique
// across the whole deployment without coordination.
type Span struct {
	Txn     string `json:"txn"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Peer    string `json:"peer"`
	Kind    string `json:"kind"`
	Service string `json:"service,omitempty"`
	// Target is the remote peer an invoke/redirect span talked to.
	Target string    `json:"target,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Chain is the active-peer-list snapshot (bracket notation) when the
	// span ended; empty for spans that never saw a chain.
	Chain string `json:"chain,omitempty"`
	// FirstLSN/LastLSN bracket the WAL records the operation produced at
	// this peer; both zero when it logged nothing.
	FirstLSN uint64 `json:"firstLSN,omitempty"`
	LastLSN  uint64 `json:"lastLSN,omitempty"`
	// Outcome is "ok" or "error"; Code is the typed error-taxonomy code
	// ("aborted", "compensated", "timeout", "peer-down", "fault:<name>").
	Outcome string `json:"outcome"`
	Code    string `json:"code,omitempty"`
	Err     string `json:"err,omitempty"`
	// Attrs carries kind-specific details (dead peer, undone node counts…).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall-clock length.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Sink receives completed spans. Implementations must be safe for
// concurrent use; Emit must not retain or mutate the span after returning
// (the tracer hands over ownership of a fresh copy).
type Sink interface {
	Emit(*Span)
}

// Tracer mints spans for one peer. A nil *Tracer is valid and disables
// tracing: every method is nil-safe so the engine never branches.
type Tracer struct {
	peer string
	sink Sink
	seq  atomic.Uint64
}

// NewTracer returns a tracer emitting into sink, or nil when sink is nil
// (tracing disabled).
func NewTracer(peer string, sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{peer: peer, sink: sink}
}

// Start opens a span. parent is the parent span ID ("" for a root). The
// returned *ActiveSpan is nil-safe: on a nil tracer it is nil, and all its
// methods no-op.
func (t *Tracer) Start(txn, parent, kind, service string) *ActiveSpan {
	if t == nil {
		return nil
	}
	id := t.peer + "#" + itoa(t.seq.Add(1))
	return &ActiveSpan{
		t: t,
		s: Span{
			Txn: txn, ID: id, Parent: parent, Peer: t.peer,
			Kind: kind, Service: service, Start: time.Now(),
		},
	}
}

// itoa is strconv.FormatUint without the import churn at call sites.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ActiveSpan is a span under construction. It is owned by the goroutine
// that started it until End; concurrent mutation is not supported.
type ActiveSpan struct {
	t *Tracer
	s Span
}

// ID returns the span's ID, or "" on a nil span (tracing disabled), so it
// can be propagated unconditionally.
func (a *ActiveSpan) ID() string {
	if a == nil {
		return ""
	}
	return a.s.ID
}

// SetTarget records the remote peer the span talked to.
func (a *ActiveSpan) SetTarget(peer string) {
	if a != nil {
		a.s.Target = peer
	}
}

// SetChain records the active-peer-list snapshot.
func (a *ActiveSpan) SetChain(chain string) {
	if a != nil {
		a.s.Chain = chain
	}
}

// SetLSNRange records the WAL records the operation produced.
func (a *ActiveSpan) SetLSNRange(first, last uint64) {
	if a != nil {
		a.s.FirstLSN, a.s.LastLSN = first, last
	}
}

// SetAttr records a kind-specific detail.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	if a.s.Attrs == nil {
		a.s.Attrs = make(map[string]string, 2)
	}
	a.s.Attrs[k] = v
}

// End completes the span and emits it. code is the typed error-taxonomy
// code ("" for success); err supplies the message. Outcome is OK only when
// both are empty/nil.
func (a *ActiveSpan) End(code string, err error) {
	if a == nil {
		return
	}
	a.s.End = time.Now()
	a.s.Code = code
	if err != nil {
		a.s.Err = err.Error()
	}
	if err == nil && code == "" {
		a.s.Outcome = OutcomeOK
	} else {
		a.s.Outcome = OutcomeError
	}
	cp := a.s
	a.t.sink.Emit(&cp)
}

// TreeNode is one node of a reassembled span tree.
type TreeNode struct {
	Span     *Span       `json:"span"`
	Children []*TreeNode `json:"children,omitempty"`
}

// Tree reassembles spans into their parent/child forest. Roots (parent
// empty or unknown — e.g. the parent span is held by a disconnected peer
// whose sink we cannot read) come first in start order; children are
// ordered by start time, then ID, for deterministic traversal.
func Tree(spans []*Span) []*TreeNode {
	nodes := make(map[string]*TreeNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &TreeNode{Span: s}
	}
	var roots []*TreeNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(n *TreeNode)
	byStart := func(ns []*TreeNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Span.Start.Equal(ns[j].Span.Start) {
				return ns[i].Span.Start.Before(ns[j].Span.Start)
			}
			return ns[i].Span.ID < ns[j].Span.ID
		})
	}
	sortKids = func(n *TreeNode) {
		byStart(n.Children)
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	byStart(roots)
	for _, r := range roots {
		sortKids(r)
	}
	return roots
}

// Walk visits the tree depth-first, parents before children.
func (n *TreeNode) Walk(fn func(*TreeNode)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}
