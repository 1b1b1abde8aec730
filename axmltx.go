// Package axmltx is a transactional framework for ActiveXML (AXML)
// repositories — XML documents with embedded Web-service calls hosted on
// peer-to-peer nodes — implementing the protocols of Biswas & Kim,
// "Atomicity for P2P based XML Repositories" (ICDE 2007):
//
//   - dynamic compensation: compensating operations for AXML queries and
//     updates are constructed at run time from the operation log;
//   - nested recovery: faults propagate through the invocation tree, with
//     per-call fault handlers (catch / catchAll / retry on replicas)
//     enabling forward recovery at intermediate peers;
//   - peer-independent recovery: participants return compensating-service
//     definitions with their results, so any peer can drive compensation;
//   - peer disconnection handling by chaining: the active-peer list travels
//     with every invocation, enabling early detection, result redirection
//     past dead parents, and reuse of already-performed work.
//
// # Quick start
//
//	net := axmltx.NewNetwork(0)
//	ap1, _ := axmltx.NewPeer(net.Join("AP1"), axmltx.WithSuper())
//	ap2, _ := axmltx.NewPeer(net.Join("AP2"))
//
//	ap2.HostDocument("Points.xml", `<Points><row player="Federer"><points>475</points></row></Points>`)
//	ap2.HostQueryService(axmltx.Descriptor{Name: "getPoints", ResultName: "points", TargetDocument: "Points.xml"},
//	    `Select r/points from r in Points//row`)
//
//	ap1.HostDocument("ATPList.xml", `<ATPList><player>
//	    <name><lastname>Federer</lastname></name>
//	    <axml:sc mode="replace" methodName="getPoints" serviceURL="AP2"/>
//	  </player></ATPList>`)
//
//	ctx := context.Background()
//	tx := ap1.Begin()
//	q := axmltx.MustQuery(`Select p/points from p in ATPList//player`)
//	res, err := ap1.Exec(ctx, tx, axmltx.NewQueryAction(q))
//	// ... err handling; res.Query.Strings() == ["475"]
//	ap1.Commit(ctx, tx) // or ap1.Abort(ctx, tx) to compensate everywhere
//
// Cancelling ctx (or exceeding its deadline) mid-transaction triggers
// backward recovery: the engine aborts the transaction, compensates every
// peer's logged work, and returns an error matching ErrTimeout.
//
// # Observability
//
// Peers trace every transaction as a span tree mirroring the invocation
// chain and export Prometheus-style metrics:
//
//	ring := axmltx.NewRing(0)
//	reg := axmltx.NewRegistry()
//	ap1, _ := axmltx.NewPeer(net.Join("AP1"), axmltx.WithSuper(),
//	    axmltx.WithTracer(ring), axmltx.WithMetrics(reg))
//	// ... run transactions, then:
//	spans := ring.Trace(tx.ID)                      // the invocation tree
//	http.ListenAndServe(":9100", axmltx.NewHTTPHandler(reg, ring))
//
// The names below alias the implementation packages so applications only
// import axmltx.
package axmltx

import (
	"errors"
	"fmt"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/membership"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/query"
	"axmltx/internal/replication"
	"axmltx/internal/services"
	"axmltx/internal/wal"
)

// Core engine types.
type (
	// Peer is an AXML peer: document store, service registry and
	// transactional engine on a transport.
	Peer = core.Peer
	// Txn is a transaction context at a peer.
	Txn = core.Context
	// Chain is the active-peer list of a transaction.
	Chain = core.Chain
	// Metrics exposes a peer's protocol counters.
	Metrics = core.Metrics
	// MetricsSnapshot is a plain copy of Metrics.
	MetricsSnapshot = core.MetricsSnapshot
	// CompensationDef is a shippable compensating-service definition.
	CompensationDef = core.CompensationDef
	// InvokeResponse is the result of a (possibly redirected) invocation.
	InvokeResponse = core.InvokeResponse
	// StreamBatch is one batch of a continuous service's stream.
	StreamBatch = core.StreamBatch
	// Env is the engine environment available to service implementations.
	Env = core.Env
	// FaultHook is application fault-handler code.
	FaultHook = core.FaultHook
	// Scheduler drives periodic (frequency-attribute) materialization.
	Scheduler = core.Scheduler
)

// Networking types.
type (
	// PeerID identifies a peer.
	PeerID = p2p.PeerID
	// Network is the in-memory simulated network.
	Network = p2p.Network
	// Transport moves messages between peers.
	Transport = p2p.Transport
	// Message is the transport unit.
	Message = p2p.Message
	// Pinger is the keep-alive failure detector.
	Pinger = p2p.Pinger
	// TCPTransport runs the protocols over real TCP.
	TCPTransport = p2p.TCPTransport
	// NetStats aggregates simulated-network message counts.
	NetStats = p2p.Stats
)

// Document and service types.
type (
	// Action is an AXML operation (query/insert/delete/replace).
	Action = axml.Action
	// Query is a parsed select-from-where query.
	Query = query.Query
	// Store is a peer's document repository.
	Store = axml.Store
	// Result is the outcome of applying an action.
	Result = axml.Result
	// ServiceCall is a view over an <axml:sc> element.
	ServiceCall = axml.ServiceCall
	// Descriptor describes a service (WSDL-lite).
	Descriptor = services.Descriptor
	// ParamDef declares a service parameter.
	ParamDef = services.ParamDef
	// Service is anything invokable on a peer.
	Service = services.Service
	// Request is a service invocation.
	Request = services.Request
	// Fault is a named service failure.
	Fault = services.Fault
	// Continuous is a subscription-based streaming service.
	Continuous = services.Continuous
	// StreamWatcher detects silence on a stream subscription.
	StreamWatcher = services.StreamWatcher
	// ReplicaTable tracks document and service replica placement.
	ReplicaTable = replication.Table
	// Log is the operation log interface.
	Log = wal.Log
)

// Evaluation modes for embedded service calls.
const (
	// Lazy materializes only the calls a query needs (the AXML default).
	Lazy = axml.Lazy
	// Eager materializes every embedded call.
	Eager = axml.Eager
)

// EvalMode selects lazy or eager materialization (Lazy / Eager).
type EvalMode = axml.EvalMode

// RecoveryMode selects who drives compensation after a fault (§3.2).
type RecoveryMode int

const (
	// RecoveryNested is originator-driven nested recovery: faults propagate
	// up the invocation tree and the calling peer compensates (the default).
	RecoveryNested RecoveryMode = iota
	// RecoveryPeerIndependent makes every served invocation return a
	// compensating-service definition with its results, so any peer can
	// drive compensation.
	RecoveryPeerIndependent
)

// Observability types, re-exported from the internal obs package.
type (
	// Span is one completed node of a transaction's trace.
	Span = obs.Span
	// Sink receives completed spans (implement it, or use Ring/JSONL).
	Sink = obs.Sink
	// Ring is a bounded in-memory span sink queryable by transaction.
	Ring = obs.Ring
	// JSONL streams spans as JSON Lines to a writer.
	JSONL = obs.JSONL
	// MultiSink fans spans out to several sinks.
	MultiSink = obs.Multi
	// Registry collects counters, gauges and latency histograms and renders
	// them in Prometheus text format.
	Registry = obs.Registry
	// TreeNode is one node of a reassembled span tree.
	TreeNode = obs.TreeNode
	// TraceResponse is the JSON shape of the /trace/{txn} endpoint.
	TraceResponse = obs.TraceResponse
	// Sampler is an adaptive tail-based sampling sink: it always keeps
	// failed, compensated, faulted and slow-percentile transactions and
	// probabilistically drops fast clean commits, with the keep/drop
	// decision propagated to every peer of a transaction.
	Sampler = obs.Sampler
	// SamplerConfig tunes a Sampler (zero value = defaults).
	SamplerConfig = obs.SamplerConfig
	// SamplerStats snapshots a sampler's keep/drop counters.
	SamplerStats = obs.SamplerStats
	// HTTPHandlerConfig assembles the full ops endpoint set of a peer
	// (metrics, traces, healthz, pprof) for NewOpsHandler.
	HTTPHandlerConfig = obs.HandlerConfig
)

// Span kinds (Span.Kind values) emitted by the engine.
const (
	KindTxn        = obs.KindTxn
	KindExec       = obs.KindExec
	KindCall       = obs.KindCall
	KindInvoke     = obs.KindInvoke
	KindServe      = obs.KindServe
	KindRetry      = obs.KindRetry
	KindRedirect   = obs.KindRedirect
	KindReuse      = obs.KindReuse
	KindCompensate = obs.KindCompensate
	KindCommit     = obs.KindCommit
	KindAbort      = obs.KindAbort
	KindMember     = obs.KindMember
	KindCompact    = obs.KindCompact
	KindCacheHit   = obs.KindCacheHit
	KindCacheMiss  = obs.KindCacheMiss
	KindCacheWait  = obs.KindCacheWait
	KindCacheFetch = obs.KindCacheFetch
)

// Gossip membership types, re-exported from internal/membership.
type (
	// Membership is a SWIM-style gossip instance: failure detection
	// (probe / indirect probe / suspect → dead, with incarnation-numbered
	// refutation) plus a self-maintaining replica catalog piggybacked on
	// the gossip exchanges. Bind one to a peer with WithMembership.
	Membership = membership.Gossip
	// MembershipConfig tunes a Membership (probe interval, suspicion
	// rounds, fanout, seeds…); the zero value of every knob is a default.
	MembershipConfig = membership.Config
	// MemberInfo is the diagnostic snapshot served by /members and
	// axmlquery -members.
	MemberInfo = membership.Info
	// CatalogEntry is one origin peer's versioned advertisement of the
	// documents and services it hosts.
	CatalogEntry = membership.CatalogEntry
	// CallAd is one gossiped materialization-cache advertisement: a cached
	// (or in-flight) service-call result peers may fetch instead of
	// re-invoking upstream (see WithCallCache).
	CallAd = membership.CallAd
)

// NewMembership creates a gossip membership instance over a transport
// (typically the same transport the peer runs on). Call Start for the
// background protocol loop, or Tick for deterministic single periods.
var NewMembership = membership.New

// NewRing creates a bounded in-memory span sink (capacity <= 0 selects the
// default).
var NewRing = obs.NewRing

// NewJSONL creates a span sink streaming JSON Lines to w.
var NewJSONL = obs.NewJSONL

// DecodeJSONL parses spans previously written by a JSONL sink.
var DecodeJSONL = obs.DecodeJSONL

// NewRegistry creates an empty metrics registry.
var NewRegistry = obs.NewRegistry

// SpanTree reassembles emitted spans into their invocation forest.
var SpanTree = obs.Tree

// NewHTTPHandler serves /metrics (Prometheus text format), /trace/{txn}
// (the span tree of one transaction as JSON) and /traces (known trace IDs).
// Either argument may be nil to disable that side.
var NewHTTPHandler = obs.NewHandler

// NewOpsHandler builds the full ops endpoint set (metrics, traces, healthz,
// optional pprof, sampled-out awareness) from an HTTPHandlerConfig.
var NewOpsHandler = obs.NewOpsHandler

// NewSampler wraps a sink with adaptive tail-based sampling; use it as the
// WithTracer sink to keep tracing always-on at near-zero cost:
//
//	ring := axmltx.NewRing(0)
//	sampler := axmltx.NewSampler(ring, axmltx.SamplerConfig{KeepRate: 0.05})
//	peer := axmltx.NewPeer(t, axmltx.WithTracer(sampler))
var NewSampler = obs.NewSampler

// Typed errors returned by the engine; match with errors.Is.
var (
	// ErrBadOption reports an Option carrying an invalid value, returned by
	// NewPeer / Open before any resources are opened.
	ErrBadOption = errors.New("axmltx: invalid option")
	// ErrPeerDown reports an unreachable / disconnected peer.
	ErrPeerDown = core.ErrPeerDown
	// ErrAborted reports that the transaction was aborted.
	ErrAborted = core.ErrAborted
	// ErrCompensated reports an abort whose logged work was undone by
	// dynamic compensation; it matches ErrAborted too.
	ErrCompensated = core.ErrCompensated
	// ErrTimeout reports a context deadline/cancellation or a lock timeout;
	// the transaction has been backward-recovered.
	ErrTimeout = core.ErrTimeout
	// ErrWALSync reports a failed WAL fsync: durability of the affected
	// appends is not guaranteed.
	ErrWALSync = wal.ErrSync
	// ErrWALCorrupt reports a corrupt WAL frame encountered on open/replay.
	ErrWALCorrupt = wal.ErrCorrupt
	// ErrWALClose reports a failure while closing a WAL file or segment.
	ErrWALClose = wal.ErrClose
)

// Option configures a peer assembled by NewPeer or Open.
type Option interface{ apply(*peerConfig) }

// peerConfig is the resolved construction state options apply to.
type peerConfig struct {
	opts   core.Options
	walSeg wal.SegmentOptions // Open's log only
	// err is the first invalid-option report; Open returns it (wrapped
	// in ErrBadOption) instead of constructing the peer.
	err error
}

// fail records the first invalid-option error.
func (c *peerConfig) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrBadOption}, args...)...)
	}
}

type optionFunc func(*peerConfig)

func (f optionFunc) apply(c *peerConfig) { f(c) }

// WithMembership binds a gossip membership instance (NewMembership) to the
// peer: the replica table is populated and pruned from the gossiped
// catalog and ranked by liveness + observed RTT, failure detection drives
// the disconnection protocol, and Host* registrations are announced to the
// network. The instance must be built over the same transport the peer
// uses; the caller owns its lifecycle (Start/Stop).
func WithMembership(m *Membership) Option {
	return optionFunc(func(c *peerConfig) { c.opts.Membership = m })
}

// WithSuper marks the peer as a trusted super peer that does not
// disconnect (§3.3, starred peers).
func WithSuper() Option {
	return optionFunc(func(c *peerConfig) { c.opts.Super = true })
}

// WithRecovery selects who drives compensation after a fault (§3.2).
func WithRecovery(mode RecoveryMode) Option {
	return optionFunc(func(c *peerConfig) {
		c.opts.PeerIndependent = mode == RecoveryPeerIndependent
	})
}

// WithTracer attaches a span sink; every Exec, Call, invocation,
// compensation, retry and redirect emits a span into it.
func WithTracer(sink Sink) Option {
	return optionFunc(func(c *peerConfig) { c.opts.TraceSink = sink })
}

// WithMetrics registers the peer's protocol counters and latency
// histograms into reg under the shared axml_* schema.
func WithMetrics(reg *Registry) Option {
	return optionFunc(func(c *peerConfig) { c.opts.MetricsRegistry = reg })
}

// WithWALSegmentSize caps an Open log segment's size in bytes before
// rotation (zero keeps the 4 MiB default). It needs Open's dir.
func WithWALSegmentSize(n int64) Option {
	return optionFunc(func(c *peerConfig) {
		if n < 0 {
			c.fail("WithWALSegmentSize(%d): negative size", n)
			return
		}
		c.walSeg.MaxSegmentBytes = n
	})
}

// WithWALCheckpointEvery checkpoints an Open log automatically after
// every n appends since the last checkpoint: a snapshot of the live
// transactions is written and covered segments are compacted away in the
// background, keeping restart replay proportional to live work rather
// than history (zero disables automatic checkpoints; call
// SegmentedLog.Checkpoint/Compact manually). It needs Open's dir.
func WithWALCheckpointEvery(n int) Option {
	return optionFunc(func(c *peerConfig) {
		if n < 0 {
			c.fail("WithWALCheckpointEvery(%d): negative count", n)
			return
		}
		c.walSeg.CheckpointEvery = n
	})
}

// WithLockTimeout bounds document lock waits (zero keeps the default).
func WithLockTimeout(d time.Duration) Option {
	return optionFunc(func(c *peerConfig) {
		if d < 0 {
			c.fail("WithLockTimeout(%v): negative timeout", d)
			return
		}
		c.opts.LockTimeout = d
	})
}

// WithCallCache enables the semantic materialization cache: embedded
// service-call results are cached under (service, canonicalized params,
// freshness window) — the window taken from the call's frequency attribute
// — and served without re-invocation while fresh, with singleflight dedupe
// of concurrent identical calls and, when the peer runs gossip membership,
// cluster-wide dedupe through call advertisements (fresh results are
// fetched from the advertising peer instead of re-invoking upstream).
// capacity bounds the number of completed entries kept; the oldest entries
// are evicted beyond it.
func WithCallCache(capacity int) Option {
	return optionFunc(func(c *peerConfig) {
		if capacity <= 0 {
			c.fail("WithCallCache(%d): capacity must be positive", capacity)
			return
		}
		c.opts.CallCacheCapacity = capacity
	})
}

// WithCacheTTL sets the freshness window applied to cacheable calls that
// declare no frequency attribute; without it (or with zero) only
// frequency-carrying calls are cached. Requires WithCallCache.
func WithCacheTTL(d time.Duration) Option {
	return optionFunc(func(c *peerConfig) {
		if d < 0 {
			c.fail("WithCacheTTL(%v): negative window", d)
			return
		}
		c.opts.CacheTTL = d
	})
}

// WithoutChaining suppresses active-peer-list propagation — the
// "traditional" baseline for the disconnection experiments (§3.3).
func WithoutChaining() Option {
	return optionFunc(func(c *peerConfig) { c.opts.DisableChaining = true })
}

// WithSlowTxnLog reports origin transactions slower than threshold to fn
// (outcome "committed" or "aborted") and force-keeps their traces when the
// peer samples adaptively. fn may be nil to only force-keep.
func WithSlowTxnLog(threshold time.Duration, fn func(txn string, d time.Duration, outcome string)) Option {
	return optionFunc(func(c *peerConfig) {
		c.opts.SlowTxn = threshold
		c.opts.SlowTxnLog = fn
	})
}

// NewNetwork creates an in-memory network with the given per-message
// latency (0 for fastest simulation).
func NewNetwork(latency time.Duration) *Network { return p2p.NewNetwork(latency) }

// NewPeer assembles a peer with an in-memory operation log: Open without a
// directory or a setup, so the WAL knobs are refused.
func NewPeer(t Transport, opts ...Option) (*Peer, error) { return Open("", t, nil, opts...) }

// Open opens the durable peer whose state lives in directory dir, creating
// it if needed: dir/wal holds the operation log (group commit: commit,
// abort and compensate-end records of a transaction that logged before
// them are durable when their append returns, and a served invocation's
// reply waits for the log) and dir/docs the
// document checkpoints. setup hosts the peer's configured documents and
// services; the checkpoints of the last Peer.Close override them, what the
// log shows in flight is compensated, and only then does the peer serve.
// An invalid option, or a WAL knob without dir, yields an error matching
// ErrBadOption.
func Open(dir string, t Transport, setup func(*Peer) error, opts ...Option) (*Peer, error) {
	cfg := &peerConfig{}
	for _, o := range opts {
		o.apply(cfg)
	}
	if dir == "" && cfg.walSeg != (wal.SegmentOptions{}) {
		cfg.fail("WithWALSegmentSize and WithWALCheckpointEvery need a directory")
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	return core.Open(dir, t, cfg.opts, cfg.walSeg, setup)
}

// SegmentedLog is the durable operation log of a peer from Open, split into
// rotated segment files, with checkpoint snapshots and compaction of
// covered segments.
type SegmentedLog = wal.SegmentedLog

// ListenTCP starts a TCP transport for a peer.
func ListenTCP(self PeerID, addr string) (*TCPTransport, error) { return p2p.ListenTCP(self, addr) }

// NewPinger creates a keep-alive failure detector over a transport.
func NewPinger(t Transport, interval time.Duration, failures int, onDown func(PeerID)) *Pinger {
	return p2p.NewPinger(t, interval, failures, onDown)
}

// ParseQuery parses a select-from-where query (trailing ';' tolerated).
func ParseQuery(src string) (*Query, error) { return axml.ParseQuery(src) }

// MustQuery is ParseQuery that panics on error, for literals.
func MustQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// NewQueryAction returns a query action.
func NewQueryAction(q *Query) *Action { return axml.NewQuery(q) }

// NewInsertAction returns an insert of data under each located node.
func NewInsertAction(loc *Query, data string) *Action { return axml.NewInsert(loc, data) }

// NewDeleteAction returns a delete of the located nodes.
func NewDeleteAction(loc *Query) *Action { return axml.NewDelete(loc) }

// NewReplaceAction returns a replace of each located node by data.
func NewReplaceAction(loc *Query, data string) *Action { return axml.NewReplace(loc, data) }

// ParseAction parses the <action> wire form.
func ParseAction(src string) (*Action, error) { return axml.ParseAction(src) }

// NewFuncService adapts a function as a service; the engine environment is
// available via EnvFrom on the passed context.
var NewFuncService = services.NewFuncService

// NewContinuous builds a continuous (streaming) service.
var NewContinuous = services.NewContinuous

// NewStreamWatcher builds a stream-silence detector.
var NewStreamWatcher = services.NewStreamWatcher

// StaticService builds a service returning fixed fragments.
var StaticService = services.StaticService

// EnvFrom extracts the engine environment inside a service body.
var EnvFrom = core.EnvFrom

// FaultNameOf extracts a fault name from an error chain ("" if anonymous).
var FaultNameOf = services.FaultName
