package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/membership"
	"axmltx/internal/obs"
	obscluster "axmltx/internal/obs/cluster"
	"axmltx/internal/p2p"
	"axmltx/internal/replication"
	"axmltx/internal/services"
	"axmltx/internal/wal"
)

// Options configure a peer's transactional behaviour. The zero value is a
// regular (non-super) peer with peer-dependent recovery, chaining enabled
// and lazy evaluation.
type Options struct {
	// Super marks the peer as a trusted super peer that does not
	// disconnect (§3.3, starred peers).
	Super bool
	// PeerIndependent makes every served invocation return a
	// compensating-service definition with its results, enabling recovery
	// driven by any peer (§3.2).
	PeerIndependent bool
	// DisableChaining suppresses active-peer-list propagation — the
	// "traditional" baseline for the disconnection experiments.
	DisableChaining bool
	// LockTimeout bounds document lock waits; zero means 2s.
	LockTimeout time.Duration
	// TraceSink receives every span the engine emits (one per Exec, Call,
	// invocation, compensation, retry, redirect…); nil disables tracing. A
	// sink chain containing an *obs.Sampler enables adaptive tail-based
	// sampling: the engine discovers it, propagates its keep/drop decision
	// with every remote invocation, and force-keeps slow transactions.
	TraceSink obs.Sink
	// MetricsRegistry, when set, receives the peer's protocol counters and
	// latency histograms under the shared axml_* schema.
	MetricsRegistry *obs.Registry
	// SlowTxn is the latency above which an origin transaction is reported
	// to SlowTxnLog and force-kept by the sampler; zero disables the hook.
	SlowTxn time.Duration
	// SlowTxnLog receives origin transactions slower than SlowTxn. outcome
	// is "committed" or "aborted". Nil falls back to sampler force-keep only.
	SlowTxnLog func(txn string, d time.Duration, outcome string)
	// Membership, when set, binds a SWIM gossip instance (built over the
	// same transport) to this peer: the replica table is populated/pruned
	// from the gossiped catalog and ranked by liveness + observed RTT,
	// failure detection drives the disconnection protocol (OnPeerDown),
	// Host* registrations are announced to the network, and successful
	// remote invokes feed the RTT estimator.
	Membership *membership.Gossip
	// CallCacheCapacity, when positive, enables the semantic
	// materialization cache: results of embedded service calls are cached
	// under (service, canonicalized params, freshness window) and served
	// without re-invocation while fresh, with singleflight dedupe of
	// concurrent identical calls and — when Membership is set — cluster-wide
	// dedupe through gossip call advertisements. The value bounds the
	// number of completed entries kept.
	CallCacheCapacity int
	// CacheTTL is the freshness window applied to cacheable calls that
	// declare no frequency attribute; zero leaves such calls uncached
	// (only frequency-carrying calls hit the cache).
	CacheTTL time.Duration
	// SLO configures the cluster observability plane's objectives (latency
	// target/quantile, availability, burn-rate window). The plane itself is
	// created whenever both Membership and MetricsRegistry are set; SLO
	// only tunes its judgment and defaults sensibly when zero.
	SLO obscluster.SLOConfig
}

// FaultHook is application-specific fault-handler code attached to
// <axml:catch> blocks (the paper's "<!-- handle the fault --> part can be
// ... some Java code"). Returning nil means the fault is handled (forward
// recovery); returning an error propagates it.
type FaultHook func(txn string, sc *axml.ServiceCall, faultName string) error

// Peer is an AXML peer: a document store, a service registry, and the
// transactional engine implementing the paper's protocols over a Transport.
type Peer struct {
	id        p2p.PeerID
	opts      Options
	transport p2p.Transport
	store     *axml.Store
	registry  *services.Registry
	replicas  *replication.Table
	mgr       *Manager
	locks     *LockTable
	metrics   *Metrics
	tracer    *obs.Tracer
	sampler   *obs.Sampler
	cache     *callCache // nil unless Options.CallCacheCapacity > 0
	plane     *obscluster.Plane

	// Latency histograms (nil-safe: stay nil without a MetricsRegistry).
	histMaterialize *obs.Histogram
	histInvoke      *obs.Histogram
	histWALSync     *obs.Histogram
	histCompensate  *obs.Histogram

	mu         sync.Mutex
	faultHooks map[string]FaultHook // key: service + "/" + faultName
	onResult   func(txn string, resp *InvokeResponse)
	onDown     func(txn string, dead p2p.PeerID)
	streamSink func(batch *StreamBatch)

	// Document-sharding state (shard.go): access-heat scores, shadow copies
	// retained across migration handoffs, and the placement loop.
	frag fragState

	dir     string      // Open's directory; "" for an in-memory peer
	handler p2p.Handler // what the transport serves, once installed
}

// NewPeer assembles a peer on the given transport and installs its message
// handler at once; Open serves only once it recovered.
func NewPeer(transport p2p.Transport, log wal.Log, opts Options) *Peer {
	p := newPeer(transport, log, opts)
	transport.SetHandler(p.handler)
	return p
}

// newPeer assembles a peer whose handler is not installed yet.
func newPeer(transport p2p.Transport, log wal.Log, opts Options) *Peer {
	if opts.LockTimeout == 0 {
		opts.LockTimeout = 2 * time.Second
	}
	p := &Peer{
		id:         transport.Self(),
		opts:       opts,
		transport:  transport,
		store:      axml.NewStore(log),
		registry:   services.NewRegistry(),
		replicas:   replication.New(),
		mgr:        NewManager(transport.Self()),
		locks:      NewLockTable(opts.LockTimeout),
		metrics:    &Metrics{},
		faultHooks: make(map[string]FaultHook),
	}
	if opts.CallCacheCapacity > 0 {
		p.cache = newCallCache(opts.CallCacheCapacity)
	}
	p.tracer = obs.NewTracer(string(p.id), opts.TraceSink)
	p.sampler = obs.FindSampler(opts.TraceSink)
	if seg, ok := log.(*wal.SegmentedLog); ok {
		seg.SetOnCompact(p.noteCompact)
	}
	if reg := opts.MetricsRegistry; reg != nil {
		p.RegisterObservability(reg)
	}
	p.frag.init()
	handler := p.handle
	if m := opts.Membership; m != nil {
		// Gossip keeps the replica table current and ranked; failure
		// detection feeds the §3.3 disconnection protocol.
		m.SetTable(p.replicas)
		m.OnDown(func(dead p2p.PeerID) {
			p.OnPeerDown(dead)
			// A dead peer may have been the destination of a fragment
			// handoff; re-promote any shadow copy it stranded.
			p.ReconcileFragments()
		})
		if opts.MetricsRegistry != nil {
			// The cluster observability plane: the local registry is
			// snapshotted each gossip round and piggybacked on sync
			// exchanges; summaries received from other peers merge into the
			// plane, and membership's death verdicts / TTL expiry drop them.
			p.plane = obscluster.NewPlane(string(p.id), opts.MetricsRegistry, opts.SLO)
			m.SetSummarySource(p.plane.Capture)
			m.OnSummary(func(s membership.PeerSummary) { _ = p.plane.Apply(s.Payload) })
			m.OnSummaryDrop(func(dead p2p.PeerID) { p.plane.Drop(string(dead)) })
		}
		handler = m.Intercept(handler)
	}
	p.handler = p2p.AnswerPings(handler)
	return p
}

// Membership returns the gossip instance bound via Options.Membership, or
// nil when the peer runs with a static replica table.
func (p *Peer) Membership() *membership.Gossip { return p.opts.Membership }

// Cluster returns the peer's cluster observability plane, or nil when the
// peer runs without both Membership and MetricsRegistry.
func (p *Peer) Cluster() *obscluster.Plane { return p.plane }

// noteInvokeRTT feeds a successful remote-invoke round trip into the
// membership RTT estimator (replica ranking), when gossip is enabled.
func (p *Peer) noteInvokeRTT(target p2p.PeerID, d time.Duration) {
	if m := p.opts.Membership; m != nil {
		m.ObserveRTT(target, d)
	}
}

// RegisterObservability exports the peer's protocol counters into reg and
// creates its latency histograms there. Called from NewPeer when Options
// carry a registry; callable later for peers constructed without one.
func (p *Peer) RegisterObservability(reg *obs.Registry) {
	peer := string(p.id)
	p.metrics.Register(reg, peer)
	obs.RegisterProcessMetrics(reg, peer)
	labels := obs.Labels{"peer": peer}
	p.histMaterialize = reg.Histogram("axml_materialize_seconds", labels)
	p.histInvoke = reg.Histogram("axml_invoke_seconds", labels)
	p.histWALSync = reg.Histogram("axml_wal_sync_seconds", labels)
	p.histCompensate = reg.Histogram("axml_compensate_seconds", labels)
	p.locks.observeWaits(reg.Histogram("axml_lock_wait_seconds", labels))
	// Elements visited over evaluations is the cost of finding a query's
	// bindings as a count: the walk's elements, or an equality index's
	// candidates.
	reg.Gauge("axml_query_evals", labels, func() int64 { n, _ := p.store.QueryStats(); return n })
	reg.Gauge("axml_query_elements_visited", labels, func() int64 { _, n := p.store.QueryStats(); return n })
	if p.cache != nil {
		reg.Gauge("axml_cache_entries", labels, p.cache.entryCount)
		reg.Gauge("axml_cache_inflight", labels, p.cache.inflightCount)
		reg.Gauge("axml_cache_hit_ratio_pct", labels, func() int64 {
			served := p.metrics.CacheHits.Load() + p.metrics.CacheWaits.Load() +
				p.metrics.CacheFetches.Load()
			total := served + p.metrics.CacheMisses.Load()
			if total == 0 {
				return 0
			}
			return served * 100 / total
		})
	}
	p.store.SetApplyObserver(func(d time.Duration) { p.histMaterialize.Observe(d) })
	if seg, ok := p.store.Log().(*wal.SegmentedLog); ok {
		// Make log compaction visible on /metrics: a gauge for the current
		// segment count (noteCompact adds the spans), and the fsyncs the log
		// has issued, forced decisions and barriers included.
		reg.Gauge("axml_wal_segments", labels, func() int64 { return int64(seg.Segments()) })
		reg.Gauge("axml_wal_fsyncs", labels, func() int64 { return int64(seg.Fsyncs()) })
	}
}

// noteCompact is the durable log's compaction hook: a wal-compact span per
// compaction, and per failed background checkpoint or compaction a span
// ending in the error and a CheckpointErrors count.
func (p *Peer) noteCompact(removed, remaining int, err error) {
	if err != nil {
		p.metrics.CheckpointErrors.Add(1)
	}
	sp := p.tracer.Start("wal", "", obs.KindCompact, "")
	sp.SetAttr("removed", strconv.Itoa(removed))
	sp.SetAttr("segments", strconv.Itoa(remaining))
	sp.End(ErrCode(err), err)
}

// Tracer returns the peer's span tracer (nil when tracing is disabled).
func (p *Peer) Tracer() *obs.Tracer { return p.tracer }

// syncLog runs the WAL durability barrier and feeds its latency histogram.
// The engine calls it once per served invocation, before anything derived
// from the serve's records leaves the peer; decision records need no call,
// because the Append of one that follows a record of its transaction
// already waits for the disk.
func (p *Peer) syncLog() error {
	start := time.Now()
	err := p.store.Log().Sync()
	p.histWALSync.Observe(time.Since(start))
	return err
}

// setSpanChain records the active-peer list ch on sp. The bracket notation
// is rendered only when sp records, so with tracing off it costs nothing.
func setSpanChain(sp *obs.ActiveSpan, ch *Chain) {
	if sp == nil {
		return
	}
	s := ""
	if ch != nil {
		s = ch.String()
	}
	sp.SetChain(s)
}

// errStatus reports an operation on a non-active transaction, typed so
// errors.Is(err, ErrAborted/ErrCompensated) holds after an abort.
func errStatus(txc *Context) error {
	switch st := txc.Status(); st {
	case StatusAborted:
		if txc.wasCompensated() {
			return fmt.Errorf("core: transaction %s: %w", txc.ID, ErrCompensated)
		}
		return fmt.Errorf("core: transaction %s: %w", txc.ID, ErrAborted)
	default:
		return fmt.Errorf("core: transaction %s is %s", txc.ID, st)
	}
}

// checkCtx maps an expired or cancelled public-API context to the paper's
// backward recovery: the transaction is aborted (with compensation) and the
// caller gets ErrTimeout.
func (p *Peer) checkCtx(ctx context.Context, txc *Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	_ = p.decide(txc, event{kind: evAbort, txn: txc.ID})
	return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
}

// ID returns the peer's identity.
func (p *Peer) ID() p2p.PeerID { return p.id }

// Super reports whether this peer is a super peer.
func (p *Peer) Super() bool { return p.opts.Super }

// Store returns the peer's document store.
func (p *Peer) Store() *axml.Store { return p.store }

// Registry returns the peer's service registry.
func (p *Peer) Registry() *services.Registry { return p.registry }

// Replicas returns the peer's replication table.
func (p *Peer) Replicas() *replication.Table { return p.replicas }

// Metrics returns the peer's protocol counters.
func (p *Peer) Metrics() *Metrics { return p.metrics }

// Manager returns the peer's transaction manager.
func (p *Peer) Manager() *Manager { return p.mgr }

// Transport returns the peer's transport.
func (p *Peer) Transport() p2p.Transport { return p.transport }

// RegisterFaultHook installs application handler code for a service's
// fault. faultName "" registers the catchAll hook.
func (p *Peer) RegisterFaultHook(service, faultName string, hook FaultHook) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faultHooks[service+"/"+faultName] = hook
}

func (p *Peer) faultHook(service, faultName string) (FaultHook, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.faultHooks[service+"/"+faultName]; ok {
		return h, true
	}
	h, ok := p.faultHooks[service+"/"]
	return h, ok
}

// OnResult installs a callback for asynchronously pushed invocation
// results (including redirected ones).
func (p *Peer) OnResult(fn func(txn string, resp *InvokeResponse)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onResult = fn
}

// OnPeerDownHook installs a callback fired after the engine processes a
// disconnection it detected or was notified of.
func (p *Peer) OnPeerDownHook(fn func(txn string, dead p2p.PeerID)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onDown = fn
}

// OnStream installs the sink for continuous-service batches streamed to
// this peer.
func (p *Peer) OnStream(fn func(batch *StreamBatch)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.streamSink = fn
}

// HostDocument parses and registers a document on this peer and records
// the replica in the local replication table.
func (p *Peer) HostDocument(name, xml string) error {
	if _, err := p.store.AddParsed(name, xml); err != nil {
		return err
	}
	p.replicas.AddDocument(name, p.id)
	if m := p.opts.Membership; m != nil {
		m.AnnounceDocument(name)
	}
	return nil
}

// HostQueryService registers a query service bound to this peer's store,
// with this peer as materializer (embedded calls reach remote providers)
// and announces it in the replication table.
func (p *Peer) HostQueryService(desc services.Descriptor, template string) {
	p.registry.Register(services.NewQueryService(desc, p.store, template, p, axml.Lazy))
	p.replicas.AddService(desc.Name, p.id)
	if m := p.opts.Membership; m != nil {
		m.AnnounceService(desc.Name)
	}
}

// HostUpdateService registers an update service bound to this peer's store.
func (p *Peer) HostUpdateService(desc services.Descriptor, template string) {
	p.registry.Register(services.NewUpdateService(desc, p.store, template, p))
	p.replicas.AddService(desc.Name, p.id)
	if m := p.opts.Membership; m != nil {
		m.AnnounceService(desc.Name)
	}
}

// HostService registers an arbitrary service implementation.
func (p *Peer) HostService(svc services.Service) {
	p.registry.Register(svc)
	p.replicas.AddService(svc.Descriptor().Name, p.id)
	if m := p.opts.Membership; m != nil {
		m.AnnounceService(svc.Descriptor().Name)
	}
}

// Begin starts a transaction at this (origin) peer.
func (p *Peer) Begin() *Context {
	id := p.mgr.NewTxnID()
	ctx := p.mgr.Begin(id, p.opts.Super)
	ctx.rootSpan = p.tracer.Start(id, "", obs.KindTxn, "")
	ctx.swapSpanID(ctx.rootSpan.ID())
	p.metrics.TxnsBegun.Add(1)
	return ctx
}

// Exec applies an AXML action locally within the transaction, with this
// peer as materializer (so embedded service calls reach remote peers).
// Errors do not abort the transaction by themselves: the paper's nested
// recovery lets the application decide between forward recovery and abort.
// An expired ctx aborts the transaction with compensation (ErrTimeout).
func (p *Peer) Exec(ctx context.Context, txc *Context, action *axml.Action) (*axml.Result, error) {
	if txc.Status() != StatusActive {
		return nil, errStatus(txc)
	}
	if err := p.checkCtx(ctx, txc); err != nil {
		return nil, err
	}
	sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindExec, "")
	if doc := action.DocName(); doc != "" {
		sp.SetAttr("doc", doc)
	}
	prevCtx := txc.swapCallCtx(ctx)
	prevSpan := txc.swapSpanID(sp.ID())
	defer func() {
		txc.swapCallCtx(prevCtx)
		txc.swapSpanID(prevSpan)
	}()
	res, err := p.execLocked(txc, action)
	if res != nil {
		sp.SetLSNRange(res.FirstLSN, res.LastLSN)
	}
	if err == nil && action.Type != axml.ActionQuery {
		// A local write touching a document drops every cache entry
		// recorded against it and withdraws its advertisements.
		p.invalidateDocCache(action.DocName())
	}
	setSpanChain(sp, txc.Chain())
	sp.End(ErrCode(err), err)
	return res, err
}

func (p *Peer) execLocked(txc *Context, action *axml.Action) (*axml.Result, error) {
	if doc := action.DocName(); doc != "" {
		if err := p.locks.Acquire(txc.ID, doc); err != nil {
			return nil, &services.Fault{Name: "lock-timeout", Msg: err.Error(), Err: ErrTimeout}
		}
	}
	return p.store.Apply(txc.ID, action, p, axml.Lazy)
}

// Call invokes a service within the transaction from the top level (not
// via an embedded call): locally when this peer provides it, remotely
// otherwise. It returns the result fragments. An expired ctx aborts the
// transaction with compensation (ErrTimeout).
func (p *Peer) Call(ctx context.Context, txc *Context, target p2p.PeerID, service string, params map[string]string) ([]string, error) {
	resp, err := p.call(ctx, txc, target, service, params, false)
	if err != nil {
		return nil, err
	}
	return resp.Fragments, nil
}

// CallAsync invokes a remote service within the transaction without
// waiting for the result: the callee acknowledges, executes, and pushes the
// result back as a KindResult message (delivered to the OnResult callback
// and recorded as a child invocation). This is the data-flow of the
// disconnection scenarios: a child returning results may find its parent
// gone (§3.3 case b).
func (p *Peer) CallAsync(ctx context.Context, txc *Context, target p2p.PeerID, service string, params map[string]string) error {
	_, err := p.call(ctx, txc, target, service, params, true)
	return err
}

// call is one top-level invocation under a call span, for Call and CallAsync.
func (p *Peer) call(ctx context.Context, txc *Context, target p2p.PeerID, service string, params map[string]string, async bool) (*InvokeResponse, error) {
	if txc.Status() != StatusActive {
		return nil, errStatus(txc)
	}
	if err := p.checkCtx(ctx, txc); err != nil {
		return nil, err
	}
	sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindCall, service)
	sp.SetTarget(string(target))
	prevCtx := txc.swapCallCtx(ctx)
	prevSpan := txc.swapSpanID(sp.ID())
	defer func() {
		txc.swapCallCtx(prevCtx)
		txc.swapSpanID(prevSpan)
	}()
	resp, err := p.invokeOnce(txc, target, service, params, async)
	setSpanChain(sp, txc.Chain())
	sp.End(ErrCode(err), err)
	return resp, err
}

// Commit makes the transaction's effects permanent everywhere: the local
// commit record is written, locks released, and commit notifications
// cascade to every participant; one the transport cannot reach never learns
// of it (DecisionSendErrors counts it). An expired ctx aborts instead
// (backward recovery) and returns ErrTimeout.
func (p *Peer) Commit(ctx context.Context, txc *Context) error {
	if err := p.checkCtx(ctx, txc); err != nil {
		return err
	}
	return p.decide(txc, event{kind: evCommit, txn: txc.ID})
}

// Abort rolls the transaction back: local effects are compensated and
// abort/compensation messages propagate to the participants (§3.2).
func (p *Peer) Abort(ctx context.Context, txc *Context) error {
	return p.decide(txc, event{kind: evAbort, txn: txc.ID})
}

// handle dispatches incoming protocol messages.
func (p *Peer) handle(ctx context.Context, msg *p2p.Message) (*p2p.Message, error) {
	switch msg.Kind {
	case p2p.KindInvoke:
		return p.handleInvoke(msg)
	case p2p.KindAbort, p2p.KindCommit, p2p.KindCompensate:
		return p.handleDecision(msg)
	case p2p.KindResult:
		p.handleResult(msg)
		return &p2p.Message{Kind: "result-ack"}, nil
	case p2p.KindRedirect:
		return p.handleRedirect(msg)
	case p2p.KindDisconnect:
		p.handleDisconnect(msg)
		return &p2p.Message{Kind: "disconnect-ack"}, nil
	case p2p.KindStream:
		p.handleStream(msg)
		return &p2p.Message{Kind: "stream-ack"}, nil
	case p2p.KindChainUpdate:
		p.handleChainUpdate(msg)
		return &p2p.Message{Kind: "chain-ack"}, nil
	case p2p.KindCompDef:
		p.handleCompDef(msg)
		return &p2p.Message{Kind: "compdef-ack"}, nil
	case p2p.KindCacheFetch:
		return p.handleCacheFetch(msg)
	case p2p.KindFragFetch:
		return p.handleFragFetch(msg)
	case p2p.KindFragMigrate:
		return p.handleFragMigrate(msg)
	case p2p.KindAdmin:
		return p.handleAdmin(msg)
	default:
		return nil, fmt.Errorf("core: peer %s: unknown message kind %q", p.id, msg.Kind)
	}
}

// handleAdmin serves directory-style requests (service descriptors), used
// by cmd/axmlquery and remote tooling.
func (p *Peer) handleAdmin(msg *p2p.Message) (*p2p.Message, error) {
	switch msg.Subject {
	case "descriptors":
		var out string
		for _, name := range p.registry.Names() {
			if svc, ok := p.registry.Get(name); ok {
				out += svc.Descriptor().XML()
			}
		}
		return &p2p.Message{Kind: p2p.KindAdmin, Payload: []byte("<services>" + out + "</services>")}, nil
	case "documents":
		var out string
		for _, name := range p.store.Names() {
			out += "<document>" + name + "</document>"
		}
		return &p2p.Message{Kind: p2p.KindAdmin, Payload: []byte("<documents>" + out + "</documents>")}, nil
	case "members":
		m := p.opts.Membership
		if m == nil {
			return nil, fmt.Errorf("core: peer %s runs without gossip membership", p.id)
		}
		payload, err := json.Marshal(m.Info())
		if err != nil {
			return nil, err
		}
		return &p2p.Message{Kind: p2p.KindAdmin, Payload: payload}, nil
	case "cluster":
		if p.plane == nil {
			return nil, fmt.Errorf("core: peer %s runs without the cluster observability plane", p.id)
		}
		payload, err := json.Marshal(p.plane.View())
		if err != nil {
			return nil, err
		}
		return &p2p.Message{Kind: p2p.KindAdmin, Payload: payload}, nil
	case "metrics":
		reg := p.obsRegistry()
		if reg == nil {
			return nil, fmt.Errorf("core: peer %s exports no metrics registry", p.id)
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			return nil, err
		}
		return &p2p.Message{Kind: p2p.KindAdmin, Payload: []byte(b.String())}, nil
	case "trace":
		ring := ringSink(p.opts.TraceSink)
		if ring == nil {
			return nil, fmt.Errorf("core: peer %s keeps no trace ring", p.id)
		}
		spans := ring.Trace(msg.Txn)
		if len(spans) == 0 {
			if p.sampler.WasSampledOut(msg.Txn) {
				payload, err := json.Marshal(obs.TraceResponse{Txn: msg.Txn, SampledOut: true})
				if err != nil {
					return nil, err
				}
				return &p2p.Message{Kind: p2p.KindAdmin, Txn: msg.Txn, Payload: payload}, nil
			}
			return nil, fmt.Errorf("core: no spans for transaction %q at %s", msg.Txn, p.id)
		}
		payload, err := json.Marshal(obs.TraceResponse{Txn: msg.Txn, Spans: len(spans), Tree: obs.Tree(spans)})
		if err != nil {
			return nil, err
		}
		return &p2p.Message{Kind: p2p.KindAdmin, Txn: msg.Txn, Payload: payload}, nil
	default:
		return nil, fmt.Errorf("core: unknown admin subject %q", msg.Subject)
	}
}

func (p *Peer) obsRegistry() *obs.Registry { return p.opts.MetricsRegistry }

// ringSink digs the queryable ring buffer out of a (possibly fanned-out,
// possibly sampled) trace sink configuration.
func ringSink(s obs.Sink) *obs.Ring {
	switch v := s.(type) {
	case *obs.Ring:
		return v
	case *obs.Sampler:
		return ringSink(v.Next())
	case obs.Multi:
		for _, sub := range v {
			if r := ringSink(sub); r != nil {
				return r
			}
		}
	}
	return nil
}
