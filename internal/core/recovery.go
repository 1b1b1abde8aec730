package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
)

// FaultDisconnected is the fault name synthesized when an invocation target
// is unreachable; <axml:catch faultName="disconnected"> handlers match it.
const FaultDisconnected = "disconnected"

// envKey carries the engine environment through context.Context into
// service bodies, so composite services can make nested invocations within
// the caller's transaction.
type envKey struct{}

// Env is the engine environment visible to service implementations.
type Env struct {
	// Peer is the hosting peer.
	Peer *Peer
	// Txn is the transaction context the invocation runs under.
	Txn *Context
}

// WithEnv attaches an environment to a context.
func WithEnv(ctx context.Context, env *Env) context.Context {
	return context.WithValue(ctx, envKey{}, env)
}

// EnvFrom extracts the engine environment, if present.
func EnvFrom(ctx context.Context) (*Env, bool) {
	env, ok := ctx.Value(envKey{}).(*Env)
	return env, ok
}

// maxInflightCalls bounds how many upstream round trips of one Invoke batch
// are in flight at once.
const maxInflightCalls = 8

// Invoke implements axml.Materializer: it executes the embedded service
// calls within txn, applying each call's fault handlers (§3.2) before
// letting a failure propagate. This is where the nested recovery protocol's
// forward-vs-backward choice is made at each intermediate peer. A batch
// runs in three phases, and only the second overlaps anything:
//
//  1. in call order, each call is served without an upstream invocation if
//     it can be, or else executed locally with recovery, or readied for its
//     round trip: chain extension and propagation (§3.3), the request and
//     its invoke span (startInvocation);
//  2. the readied round trips, overlapped (roundTrips);
//  3. in call order, each reply is finished — chain adoption, the
//     child-invocation record, recovery of a failure — and the call's cache
//     flight filled or withdrawn (finishInvocation).
//
// The WAL and chain state are therefore those of one-call-at-a-time
// execution, and a batch of one is exactly that.
func (p *Peer) Invoke(txn string, calls []*axml.ServiceCall, params [][]axml.Param) []axml.InvokeOutcome {
	txc, ok := p.mgr.Get(txn)
	if !ok {
		err := fmt.Errorf("core: no context for transaction %s at %s", txn, p.id)
		return axml.InvokeEach(calls, params, func(*axml.ServiceCall, []axml.Param) ([]string, error) { return nil, err })
	}
	out := make([]axml.InvokeOutcome, len(calls))
	invs := make([]invocation, len(calls))
	leading := false
	for i, sc := range calls {
		invs[i].sc = sc
		out[i].Fragments, out[i].Err = p.startInvocation(txc, &invs[i], params[i], !leading)
		leading = leading || (invs[i].fl != nil && invs[i].msg != nil)
	}
	p.roundTrips(txc, invs)
	for i := range invs {
		if invs[i].msg != nil {
			out[i].Fragments, out[i].Err = p.finishInvocation(txc, &invs[i])
		}
	}
	return out
}

// invocation is one call's state between the phases of Invoke.
type invocation struct {
	sc     *axml.ServiceCall
	pm     map[string]string
	target p2p.PeerID
	spec   cacheSpec
	fl     *flight         // the cache flight this call leads, if any
	miss   *obs.ActiveSpan // the leader's cache-miss span
	msg    *p2p.Message    // the request, when a round trip is due
	sp     *obs.ActiveSpan // the invoke span opened with msg
	reply  *p2p.Message
	err    error
}

// startInvocation is phase 1 for one call. Each of these serves the call
// with no upstream invocation: work salvaged from a disconnected peer's
// children (§3.3 case b: "passing the materialized results directly"), a
// fresh local cache entry, a bounded wait on another caller's flight of the
// same key, and a fetch from a peer advertising the key in the gossip
// catalog. Served results extend no chain and record no child invocation:
// nothing needs committing, aborting or compensating at a provider that was
// never invoked. Otherwise a cacheable call leads its key's flight, and the
// call is executed locally, its outcome returned, or readied for its round
// trip (inv.msg set).
//
// mayWait is false once the batch leads a flight still open: a flight of
// this very batch completes only in phase 3, and two batches each waiting
// on a flight the other leads would stall until the wait bound. The call
// then proceeds uncached.
func (p *Peer) startInvocation(txc *Context, inv *invocation, params []axml.Param, mayWait bool) ([]string, error) {
	service := inv.sc.Service()
	if frags, ok := txc.takeReused(service); ok {
		p.metrics.WorkReused.Add(1)
		sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindReuse, service)
		setSpanChain(sp, txc.Chain())
		sp.End("", nil)
		return frags, nil
	}
	if spec, ok := p.cacheSpecFor(inv.sc, params); ok {
		if frags, ok := p.cache.lookup(spec.key, time.Now()); ok {
			p.metrics.CacheHits.Add(1)
			sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindCacheHit, service)
			sp.End("", nil)
			return frags, nil
		}
		fl, leader := p.cache.begin(spec.key)
		switch {
		case leader:
			if e, ok := p.fetchFromOwner(txc, spec, service); ok {
				p.cachePut(spec, e)
				p.cache.finish(spec.key, fl, e.fragments, nil)
				return e.fragments, nil
			}
			p.metrics.CacheMisses.Add(1)
			if m := p.opts.Membership; m != nil {
				// Advertise the in-flight call so remote peers about to invoke
				// the same key can direct a fetch here instead of going upstream.
				m.AnnounceCallInflight(spec.key, service)
			}
			inv.spec, inv.fl = spec, fl
			inv.miss = p.tracer.Start(txc.ID, txc.SpanID(), obs.KindCacheMiss, service)
		case mayWait:
			// A failed or overlong flight falls through to this call's own
			// upstream invocation, without registering a flight of its own.
			sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindCacheWait, service)
			frags, err, done := p.cache.wait(txc.ctxForCalls(), fl, p.opts.LockTimeout)
			if done && err == nil {
				p.metrics.CacheWaits.Add(1)
				sp.End("", nil)
				return frags, nil
			}
			sp.SetAttr("fallthrough", "true")
			sp.End(ErrCode(err), err)
		}
	}
	inv.pm = paramMap(params)
	inv.target = p.resolveTarget(inv.sc)
	prev := inv.adoptMiss(txc)
	if inv.target != p.id && inv.target != "" {
		inv.msg, inv.sp = p.prepareRemoteInvoke(txc, inv.target, service, inv.pm, false)
		inv.dropMiss(txc, prev)
		return nil, nil
	}
	resp, err := p.invokeOnce(txc, inv.target, service, inv.pm, false)
	frags, err := p.recovered(txc, inv, resp, err)
	inv.dropMiss(txc, prev)
	return p.settleFlight(inv, frags, err)
}

// roundTrips is phase 2: the requests readied in phase 1, at most
// maxInflightCalls in flight at once. A lone request runs on the caller's
// goroutine. Nothing here writes transaction state.
func (p *Peer) roundTrips(txc *Context, invs []invocation) {
	var due []*invocation
	for i := range invs {
		if invs[i].msg != nil {
			due = append(due, &invs[i])
		}
	}
	if len(due) < 2 {
		for _, inv := range due {
			inv.reply, inv.err = p.request(txc, inv.target, inv.msg)
		}
		return
	}
	sem := make(chan struct{}, maxInflightCalls)
	var wg sync.WaitGroup
	for _, inv := range due {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv.reply, inv.err = p.request(txc, inv.target, inv.msg)
			<-sem
		}()
	}
	wg.Wait()
}

// finishInvocation is phase 3 for one call that made a round trip.
func (p *Peer) finishInvocation(txc *Context, inv *invocation) ([]string, error) {
	prev := inv.adoptMiss(txc)
	resp, err := p.finishRemoteInvoke(txc, inv.target, inv.sc.Service(), false, inv.reply, inv.err, inv.sp)
	frags, err := p.recovered(txc, inv, resp, err)
	inv.dropMiss(txc, prev)
	return p.settleFlight(inv, frags, err)
}

// recovered turns an invocation's response into the call's outcome, running
// the fault-handler recovery protocol on failure.
func (p *Peer) recovered(txc *Context, inv *invocation, resp *InvokeResponse, err error) ([]string, error) {
	if err != nil {
		return p.recoverInvocation(txc, inv.sc, inv.pm, inv.target, err)
	}
	return resp.Fragments, nil
}

// adoptMiss makes a leader's cache-miss span the tracing parent of its
// upstream work (invoke and retry spans) and returns the parent for
// dropMiss to restore.
func (inv *invocation) adoptMiss(txc *Context) string {
	if inv.fl == nil {
		return ""
	}
	return txc.swapSpanID(inv.miss.ID())
}

func (inv *invocation) dropMiss(txc *Context, prev string) {
	if inv.fl != nil {
		txc.swapSpanID(prev)
	}
}

// settleFlight ends a leader's cache-miss span and completes its flight: a
// result is cached and advertised, a failure withdraws the in-flight
// advertisement. Calls leading no flight pass through.
func (p *Peer) settleFlight(inv *invocation, frags []string, err error) ([]string, error) {
	if inv.fl == nil {
		return frags, err
	}
	inv.miss.End(ErrCode(err), err)
	if err != nil {
		if m := p.opts.Membership; m != nil {
			m.WithdrawCall(inv.spec.key)
		}
		p.cache.finish(inv.spec.key, inv.fl, nil, err)
		return nil, err
	}
	p.cachePut(inv.spec, &cacheEntry{
		service: inv.sc.Service(), fragments: frags,
		fetched: time.Now(), window: inv.spec.window, docs: inv.spec.docs,
	})
	p.cache.finish(inv.spec.key, inv.fl, frags, nil)
	return frags, nil
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

// ResultName implements axml.Materializer via the local registry.
func (p *Peer) ResultName(service string) string { return p.registry.ResultName(service) }

// resolveTarget picks the provider of an embedded call: the explicit
// serviceURL (peer ID) if any, the local registry, then the replication
// table's ranked providers.
func (p *Peer) resolveTarget(sc *axml.ServiceCall) p2p.PeerID {
	if url := sc.URL(); url != "" {
		return p2p.PeerID(url)
	}
	if _, ok := p.registry.Get(sc.Service()); ok {
		return p.id
	}
	if alt, ok := p.replicas.Alternative(sc.Service()); ok {
		return alt
	}
	return p.id // will fail with unknown service, the honest error
}

// recoverInvocation applies the service call's fault handlers to a failed
// invocation: application hooks first, then retry (with wait, and with an
// alternative provider when the handler or the replication table supplies
// one). A handled fault counts as forward recovery; an unhandled one is
// propagated (backward recovery).
func (p *Peer) recoverInvocation(txc *Context, sc *axml.ServiceCall, params map[string]string, failed p2p.PeerID, cause error) ([]string, error) {
	faultName := faultNameOf(cause)
	handler, ok := sc.HandlerFor(faultName)
	if !ok {
		p.metrics.BackwardRecoveries.Add(1)
		return nil, cause
	}
	// Application-specific handler code (the paper's "Java code" slot).
	if hook, ok := p.faultHook(sc.Service(), handler.FaultName); ok {
		if err := hook(txc.ID, sc, faultName); err == nil {
			p.metrics.ForwardRecoveries.Add(1)
			return nil, nil
		}
	}
	if handler.Retry == nil {
		p.metrics.BackwardRecoveries.Add(1)
		return nil, cause
	}
	excluded := []p2p.PeerID{failed}
	lastErr := cause
	for attempt := 0; attempt < handler.Retry.Times; attempt++ {
		if handler.Retry.Wait > 0 {
			time.Sleep(handler.Retry.Wait)
		}
		p.metrics.RetriesAttempted.Add(1)
		target, service, pm := failed, sc.Service(), params
		if alt := handler.Retry.Alt; alt != nil {
			// The optional <axml:sc> inside retry names the replacement
			// invocation (typically the same service on a replica peer).
			service = alt.Service()
			pm = paramMapOf(alt, params)
			if alt.URL() != "" {
				target = p2p.PeerID(alt.URL())
			}
		}
		if target == failed {
			// Pick a replica provider, excluding everyone who failed.
			if alt, ok := p.replicas.Alternative(service, excluded...); ok {
				target = alt
			}
		}
		if target == failed && faultNameOf(lastErr) == FaultDisconnected {
			// No alternative provider for a dead peer: retrying is futile.
			break
		}
		rsp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindRetry, service)
		rsp.SetTarget(string(target))
		rsp.SetAttr("attempt", strconv.Itoa(attempt+1))
		prevSpan := txc.swapSpanID(rsp.ID())
		resp, err := p.invokeOnce(txc, target, service, pm, false)
		txc.swapSpanID(prevSpan)
		setSpanChain(rsp, txc.Chain())
		rsp.End(ErrCode(err), err)
		if err == nil {
			p.metrics.ForwardRecoveries.Add(1)
			return resp.Fragments, nil
		}
		lastErr = err
		excluded = append(excluded, target)
	}
	p.metrics.BackwardRecoveries.Add(1)
	return nil, lastErr
}

// paramMapOf binds an alternative call's own literal params, falling back
// to the original invocation's parameters.
func paramMapOf(sc *axml.ServiceCall, orig map[string]string) map[string]string {
	out := make(map[string]string, len(orig))
	for k, v := range orig {
		out[k] = v
	}
	for _, prm := range sc.Params() {
		if prm.Value != "" {
			out[prm.Name] = prm.Value
		}
	}
	return out
}

func paramMap(params []axml.Param) map[string]string {
	out := make(map[string]string, len(params))
	for _, prm := range params {
		out[prm.Name] = prm.Value
	}
	return out
}

// faultNameOf classifies an error: unreachable peers become the synthetic
// "disconnected" fault, named service faults keep their name, anything
// else is anonymous ("" matches only catchAll).
func faultNameOf(err error) string {
	if errors.Is(err, p2p.ErrUnreachable) {
		return FaultDisconnected
	}
	return services.FaultName(err)
}

// invokeOnce performs a single local or remote invocation within txc,
// recording the completed child invocation and adopting the callee's chain.
func (p *Peer) invokeOnce(txc *Context, target p2p.PeerID, service string, params map[string]string, async bool) (*InvokeResponse, error) {
	if target == p.id || target == "" {
		sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindInvoke, service)
		sp.SetTarget(string(p.id))
		start := time.Now()
		frags, err := p.executeLocalService(txc, service, params)
		p.histInvoke.Observe(time.Since(start))
		setSpanChain(sp, txc.Chain())
		sp.End(ErrCode(err), err)
		if err != nil {
			return nil, err
		}
		return &InvokeResponse{Service: service, Fragments: frags, Chain: txc.Chain()}, nil
	}
	msg, sp := p.prepareRemoteInvoke(txc, target, service, params, async)
	reply, err := p.request(txc, target, msg)
	return p.finishRemoteInvoke(txc, target, service, async, reply, err, sp)
}

// request performs one remote round trip for txc, timed by the invoke
// histogram and, when it succeeds, by the membership RTT estimator.
func (p *Peer) request(txc *Context, target p2p.PeerID, msg *p2p.Message) (*p2p.Message, error) {
	start := time.Now()
	reply, err := p.transport.Request(txc.ctxForCalls(), target, msg)
	elapsed := time.Since(start)
	p.histInvoke.Observe(elapsed)
	if err == nil {
		p.noteInvokeRTT(target, elapsed)
	}
	return reply, err
}

// prepareRemoteInvoke performs the synchronous bookkeeping that must happen
// in invocation order — metrics, chain extension and ancestor propagation —
// and returns the wire message plus the opened client-side invoke span
// (whose ID travels in the message, parenting the participant's serve
// span). Chain sibling order is the order of prepareRemoteInvoke calls,
// which Invoke keeps equal to call order.
func (p *Peer) prepareRemoteInvoke(txc *Context, target p2p.PeerID, service string, params map[string]string, async bool) (*p2p.Message, *obs.ActiveSpan) {
	p.metrics.InvocationsMade.Add(1)
	sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindInvoke, service)
	sp.SetTarget(string(target))
	req := &InvokeRequest{
		Txn:     txc.ID,
		Origin:  txc.Origin,
		Caller:  p.id,
		Service: service,
		Params:  params,
		Async:   async,
	}
	if !p.opts.DisableChaining {
		req.Chain = txc.ExtendChain(p.id, target, service, false)
		// Share the extended active peer list with our ancestors before
		// the invocation runs: should we die mid-flight, they already know
		// the subtree below us (§3.3 — AP2 must know about AP6).
		p.propagateChain(txc)
	}
	// The span reference carries the sampler's keep/drop decision to the
	// participant, so all peers of a deployment retain or drop the same
	// transactions without coordination.
	msg := &p2p.Message{Kind: p2p.KindInvoke, Txn: txc.ID, Subject: service,
		Payload: encode(req), Span: obs.EncodeWireSpan(sp.ID(), p.sampler.DropEligible(txc.ID))}
	return msg, sp
}

// finishRemoteInvoke processes a remote invocation's reply: error mapping,
// chain adoption, the child-invocation record, and closing the invoke span
// opened by prepareRemoteInvoke.
func (p *Peer) finishRemoteInvoke(txc *Context, target p2p.PeerID, service string, async bool, reply *p2p.Message, err error, sp *obs.ActiveSpan) (_ *InvokeResponse, failed error) {
	defer func() {
		setSpanChain(sp, txc.Chain())
		sp.End(ErrCode(failed), failed)
	}()
	if err != nil {
		if errors.Is(err, p2p.ErrUnreachable) {
			p.metrics.DisconnectsDetected.Add(1)
		}
		return nil, err
	}
	if reply.Err != "" {
		// The error reply is the "Abort TA" message from the participant
		// to its invoker (it has already aborted its local context). The
		// typed code reconstructs an errors.Is-compatible error.
		return nil, errFromWire(reply.Code, reply.Subject, reply.Err)
	}
	if async {
		return &InvokeResponse{Service: service}, nil
	}
	var resp InvokeResponse
	if err := decode(reply.Payload, &resp); err != nil {
		return nil, err
	}
	if resp.Chain != nil && !p.opts.DisableChaining {
		txc.MergeChain(resp.Chain)
	}
	txc.AddChild(p.childInvocation(target, service, resp.Comp))
	return &resp, nil
}

// childInvocation records a completed invocation of service at peer with
// the compensating-service definition its reply carried, if any. A
// definition that does not decode is counted in CompDefsRejected and
// dropped: that participant can then be reached only by abort messages.
func (p *Peer) childInvocation(peer p2p.PeerID, service string, comp []byte) Invocation {
	inv := Invocation{Peer: peer, Service: service}
	if len(comp) > 0 {
		def, err := DecodeCompensationDef(comp)
		if err != nil {
			p.metrics.CompDefsRejected.Add(1)
		}
		inv.Comp = def
	}
	return inv
}

// InvokesLocally implements axml.LocalityHinter: calls that resolve to this
// very peer re-enter the local store when executed, so the store keeps
// them out of its batches.
func (p *Peer) InvokesLocally(sc *axml.ServiceCall) bool {
	target := p.resolveTarget(sc)
	return target == p.id || target == ""
}

// propagateChain shares txc's current chain with every ancestor of this
// peer, best effort and one-way.
func (p *Peer) propagateChain(txc *Context) {
	chain := txc.Chain()
	if chain == nil {
		return
	}
	payload := encode(&ChainUpdate{Txn: txc.ID, Chain: chain})
	bg := context.Background()
	for _, ancestor := range chain.AncestorsOf(p.id) {
		_ = p.transport.Send(bg, ancestor, &p2p.Message{
			Kind: p2p.KindChainUpdate, Txn: txc.ID, Payload: payload,
		})
	}
}

// handleChainUpdate merges a propagated active peer list into the local
// context.
func (p *Peer) handleChainUpdate(msg *p2p.Message) {
	var cu ChainUpdate
	if err := decode(msg.Payload, &cu); err != nil || cu.Chain == nil {
		return
	}
	if txc, ok := p.mgr.Get(cu.Txn); ok && !p.opts.DisableChaining {
		txc.SetChain(txc.Chain().Merge(cu.Chain))
	}
}

// executeLocalService runs a registry service under txc with the engine
// environment attached, acquiring the service's declared document lock.
func (p *Peer) executeLocalService(txc *Context, service string, params map[string]string) ([]string, error) {
	svc, ok := p.registry.Get(service)
	if !ok {
		return nil, fmt.Errorf("%w: %q at %s", services.ErrUnknownService, service, p.id)
	}
	desc := svc.Descriptor()
	if desc.TargetDocument != "" {
		if err := p.locks.Acquire(txc.ID, desc.TargetDocument, LockExclusive); err != nil {
			return nil, &services.Fault{Name: "lock-timeout", Msg: err.Error()}
		}
	}
	cctx := WithEnv(context.Background(), &Env{Peer: p, Txn: txc})
	frags, err := p.registry.Invoke(cctx, service, &services.Request{Txn: txc.ID, Params: params})
	if err == nil && desc.Kind == services.KindUpdate {
		// The update just changed its target document: cached results read
		// from it are no longer the freshest available.
		p.invalidateDocCache(desc.TargetDocument)
	}
	return frags, err
}

// handleInvoke serves an incoming invocation (the participant side).
func (p *Peer) handleInvoke(msg *p2p.Message) (*p2p.Message, error) {
	var req InvokeRequest
	if err := decode(msg.Payload, &req); err != nil {
		return nil, err
	}
	var chain *Chain
	if req.Chain != nil && !p.opts.DisableChaining {
		chain = req.Chain.Clone()
		chain.markSuper(p.id, p.opts.Super)
	}
	txc := p.mgr.BeginParticipant(req.Txn, req.Origin, req.Caller, req.Service, chain)
	txc.storeReused(req.Reused)
	p.metrics.InvocationsServed.Add(1)
	// The serve span parents on the caller's invoke span carried in the
	// message, stitching one trace tree across the peer boundary. It also
	// becomes this context's parent hint for nested and later spans. The
	// wire reference additionally carries the caller's sampling decision.
	parentSpan, dropHint := obs.DecodeWireSpan(msg.Span)
	if msg.Span != "" {
		// An empty reference means the caller doesn't trace at all — that is
		// no hint, and the local coin stays in charge. Treating it as "keep"
		// would disable sampling on every peer serving untraced clients.
		p.sampler.Hint(req.Txn, dropHint)
	}
	sp := p.tracer.Start(req.Txn, parentSpan, obs.KindServe, req.Service)
	sp.SetTarget(string(req.Caller))
	txc.swapSpanID(sp.ID())

	if req.Async {
		// Acknowledge, run the service, then push the result — the flow
		// where a child may find its parent gone when returning results.
		go p.runAsync(txc, &req, sp)
		return &p2p.Message{Kind: "invoke-ack"}, nil
	}

	logBefore := len(p.store.Log().TxnRecords(req.Txn))
	frags, err := p.serveLocal(txc, &req)
	setServeLSNRange(sp, p.store.Log(), req.Txn, logBefore)
	if err != nil {
		// The paper's step 1 at a failed peer: abort the local context,
		// notify the peers whose services we invoked; the error reply
		// carries the abort to the invoker. The abort record is a decision,
		// durable with every serve record before it when its Append returns.
		setSpanChain(sp, txc.Chain())
		sp.End(ErrCode(err), err)
		_ = p.abortContext(txc, req.Caller, false)
		return &p2p.Message{Kind: p2p.KindResult, Txn: req.Txn,
			Subject: faultNameOf(err), Err: err.Error(), Code: ErrCode(err)}, nil
	}
	setSpanChain(sp, txc.Chain())
	sp.End("", nil)
	resp := p.serveResponse(txc, &req, frags, logBefore)
	return &p2p.Message{Kind: p2p.KindResult, Txn: req.Txn, Payload: encode(resp)}, nil
}

// serveLocal runs a served invocation's service, then the write-ahead
// barrier: its reply, async push and shipped definition are all derived from
// the records it just appended, so none of them may leave before those
// records are durable. A failed barrier fails the invocation.
func (p *Peer) serveLocal(txc *Context, req *InvokeRequest) ([]string, error) {
	frags, err := p.executeLocalService(txc, req.Service, req.Params)
	if err != nil {
		return nil, err
	}
	if err := p.syncLog(); err != nil {
		return nil, err
	}
	return frags, nil
}

// serveResponse builds a served invocation's reply: results, chain, the
// value of the work logged since logBefore and, in peer-independent mode,
// the compensating-service definition, also sent to the origin.
func (p *Peer) serveResponse(txc *Context, req *InvokeRequest, frags []string, logBefore int) *InvokeResponse {
	resp := &InvokeResponse{
		Service:   req.Service,
		Fragments: frags,
		Chain:     txc.Chain(),
		Nodes:     workNodesSince(p.store.Log(), req.Txn, logBefore),
	}
	if p.opts.PeerIndependent {
		resp.Comp = BuildCompensationDef(p.store, req.Txn, p.id, req.Service).Encode()
		p.metrics.CompServicesBuilt.Add(1)
		p.sendCompDefToOrigin(req, resp.Comp)
	}
	return resp
}

// sendCompDefToOrigin also ships the compensating-service definition to
// the origin peer directly ("The compensating service definitions can also
// be sent to the origin peer directly", §3.2): should an intermediate peer
// later disconnect, the origin can still drive this participant's
// compensation without the invocation path.
func (p *Peer) sendCompDefToOrigin(req *InvokeRequest, payload []byte) {
	if req.Origin == "" || req.Origin == p.id || req.Origin == req.Caller {
		return // the caller already receives the definition with the reply
	}
	_ = p.transport.Send(context.Background(), req.Origin, &p2p.Message{
		Kind: p2p.KindCompDef, Txn: req.Txn, Payload: payload,
	})
}

// handleCompDef stores a definition shipped directly by a participant.
func (p *Peer) handleCompDef(msg *p2p.Message) {
	def, err := DecodeCompensationDef(msg.Payload)
	if err != nil {
		p.metrics.CompDefsRejected.Add(1)
		return
	}
	if txc, ok := p.mgr.Get(msg.Txn); ok {
		txc.AddCompDef(def)
	}
}

// runAsync executes a deferred invocation and pushes the result to the
// caller, redirecting up the chain when the caller has disconnected (§3.3
// case b).
func (p *Peer) runAsync(txc *Context, req *InvokeRequest, sp *obs.ActiveSpan) {
	logBefore := len(p.store.Log().TxnRecords(req.Txn))
	frags, err := p.serveLocal(txc, req)
	setServeLSNRange(sp, p.store.Log(), req.Txn, logBefore)
	setSpanChain(sp, txc.Chain())
	sp.End(ErrCode(err), err)
	if err != nil {
		_ = p.abortContext(txc, "", true)
		return
	}
	resp := p.serveResponse(txc, req, frags, logBefore)
	msg := &p2p.Message{Kind: p2p.KindResult, Txn: req.Txn, Subject: req.Service, Payload: encode(resp)}
	if err := p.transport.Send(context.Background(), req.Caller, msg); err == nil {
		return
	}
	// Parent unreachable while returning results: scenario (b).
	p.metrics.DisconnectsDetected.Add(1)
	p.redirectPastDeadParent(txc, req.Caller, req.Service, resp)
}

// handleResult receives an asynchronously pushed invocation result.
func (p *Peer) handleResult(msg *p2p.Message) {
	var resp InvokeResponse
	if err := decode(msg.Payload, &resp); err != nil {
		return
	}
	if txc, ok := p.mgr.Get(msg.Txn); ok {
		if resp.Chain != nil && !p.opts.DisableChaining {
			txc.SetChain(txc.Chain().Merge(resp.Chain))
		}
		txc.AddChild(p.childInvocation(msg.From, resp.Service, resp.Comp))
	}
	p.mu.Lock()
	cb := p.onResult
	p.mu.Unlock()
	if cb != nil {
		cb(msg.Txn, &resp)
	}
}

// abortContext rolls back the local context and propagates "Abort TA":
// to every completed child invocation, and — when notifyParent — to the
// invoking peer. skip names a peer that must not be re-notified (the one
// the abort came from). Peer-independent mode sends participants their own
// compensating-service definitions instead of abort messages. The error
// joins the failures of the decision record and of compensation: an abort
// whose decision never reached disk is never silent.
func (p *Peer) abortContext(txc *Context, skip p2p.PeerID, notifyParent bool) error {
	if !txc.transition(StatusAborted) {
		return nil // already terminal; idempotent
	}
	if txc.Self == txc.Origin {
		p.metrics.TxnsAborted.Add(1)
	}
	sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindAbort, txc.Service)
	// The abort decision must be durable before compensation starts: a crash
	// mid-compensation must replay as an abort, not an in-flight transaction.
	// Append of a decision record returns only once it is on disk, so its
	// error carries a failed sync too.
	_, decisionErr := p.store.Log().Append(&wal.Record{Txn: txc.ID, Type: wal.TypeAbort})

	def := BuildCompensationDef(p.store, txc.ID, p.id, "")
	affected, compErr := p.execCompensation(def, sp.ID())
	txc.markCompensated()
	p.metrics.Compensations.Add(1)
	p.metrics.NodesUndone.Add(int64(affected))
	txc.AddUndoNodes(affected)
	p.locks.ReleaseAll(txc.ID)
	// Compensation just rewrote these documents; drop entries recorded
	// against them and withdraw their advertisements.
	p.invalidateDocCache(def.Docs()...)

	bg := context.Background()
	for _, inv := range abortTargets(txc) {
		if inv.Peer == skip || inv.Peer == p.id {
			continue
		}
		if inv.Comp == nil {
			p.metrics.AbortsSent.Add(1)
			_ = p.transport.Send(bg, inv.Peer, &p2p.Message{Kind: p2p.KindAbort, Txn: txc.ID})
			continue
		}
		p.routeCompensation(txc.ID, sp.ID(), inv)
	}
	if notifyParent && txc.Parent != "" && txc.Parent != skip {
		p.metrics.AbortsSent.Add(1)
		_ = p.transport.Send(bg, txc.Parent, &p2p.Message{Kind: p2p.KindAbort, Txn: txc.ID})
	}
	err := errors.Join(decisionErr, compErr)
	if err != nil {
		p.metrics.AbortErrors.Add(1)
	}
	setSpanChain(sp, txc.Chain())
	sp.End(ErrCode(err), err)
	if txc.rootSpan != nil {
		p.noteSlowTxn(txc, "aborted")
		// Close the origin's transaction root span with the abort outcome
		// so /trace shows a complete tree for aborted transactions.
		setSpanChain(txc.rootSpan, txc.Chain())
		txc.rootSpan.End(CodeCompensated, nil)
		txc.rootSpan = nil
	}
	return err
}

// abortTargets lists the peers an abort of txc must reach: every completed
// child invocation in order, then each participant whose definition was
// shipped directly (§3.2) and that is not already a child — the origin can
// thus compensate peers whose invocation path has broken.
func abortTargets(txc *Context) []Invocation {
	targets := txc.Children()
	for _, def := range txc.CompDefs() {
		if !slices.ContainsFunc(targets, func(c Invocation) bool { return c.Peer == def.Peer }) {
			targets = append(targets, Invocation{Peer: def.Peer, Service: def.Service, Comp: def})
		}
	}
	return targets
}

// routeCompensation drives one participant's shipped definition: at the
// original peer; if it has disconnected, at a live replica holder of an
// affected document (§3.3); if none is reachable, its nodes are lost (the
// Spheres of Atomicity caveat).
func (p *Peer) routeCompensation(txn, span string, inv Invocation) {
	p.metrics.CompServicesRun.Add(1)
	bg := context.Background()
	payload := inv.Comp.Encode()
	if p.transport.Send(bg, inv.Peer, &p2p.Message{
		Kind: p2p.KindCompensate, Txn: txn, Payload: payload, Span: span,
	}) == nil {
		return
	}
	p.metrics.DisconnectsDetected.Add(1)
	tried := map[p2p.PeerID]bool{inv.Peer: true, p.id: true}
	for _, doc := range inv.Comp.Docs() {
		for _, holder := range p.replicas.DocumentReplicas(doc) {
			if tried[holder] {
				continue
			}
			tried[holder] = true
			if p.transport.Send(bg, holder, &p2p.Message{
				Kind: p2p.KindCompensate, Txn: txn, Payload: payload,
			}) == nil {
				return
			}
		}
	}
	p.metrics.NodesLost.Add(int64(inv.Comp.Nodes))
}

// handleAbort processes an incoming "Abort TA".
func (p *Peer) handleAbort(msg *p2p.Message) {
	p.metrics.AbortsReceived.Add(1)
	txc, ok := p.mgr.Get(msg.Txn)
	if !ok {
		// No live context (e.g. already removed): still compensate any
		// logged effects, idempotently — unless the transaction committed
		// here, in which case a stray abort must not undo durable work.
		if wal.Fold(p.store.Log().TxnRecords(msg.Txn)).Committed {
			return
		}
		def := BuildCompensationDef(p.store, msg.Txn, p.id, "")
		affected, err := def.Execute(p.store)
		if err != nil {
			p.metrics.AbortErrors.Add(1)
		}
		if affected > 0 {
			p.metrics.Compensations.Add(1)
			p.metrics.NodesUndone.Add(int64(affected))
		}
		p.invalidateDocCache(def.Docs()...)
		return
	}
	// Continue propagation away from the sender: to children, and upward
	// unless the abort came from the parent.
	_ = p.abortContext(txc, msg.From, msg.From != txc.Parent)
}

// handleCommit processes a commit notification, cascading to children.
func (p *Peer) handleCommit(msg *p2p.Message) {
	txc, ok := p.mgr.Get(msg.Txn)
	if !ok {
		return
	}
	if !txc.transition(StatusCommitted) {
		return
	}
	sp := p.tracer.Start(msg.Txn, txc.SpanID(), obs.KindCommit, txc.Service)
	// As at the origin's Commit, the decision record is on disk when Append
	// returns, before this participant cascades it. A failure is counted
	// and ends the span; the cascade still runs, since the origin decided.
	_, err := p.store.Log().Append(&wal.Record{Txn: msg.Txn, Type: wal.TypeCommit})
	if err != nil {
		p.metrics.CommitErrors.Add(1)
	}
	defer sp.End(ErrCode(err), err)
	p.locks.ReleaseAll(msg.Txn)
	for _, child := range txc.Children() {
		if child.Peer == msg.From {
			continue
		}
		_ = p.transport.Send(context.Background(), child.Peer,
			&p2p.Message{Kind: p2p.KindCommit, Txn: msg.Txn})
	}
	if err == nil {
		p.store.DropDeleted(msg.Txn)
	}
	p.mgr.Remove(msg.Txn)
}

// handleCompensate executes a shipped compensating-service definition.
func (p *Peer) handleCompensate(msg *p2p.Message) (*p2p.Message, error) {
	def, err := DecodeCompensationDef(msg.Payload)
	if err != nil {
		return nil, err
	}
	parent, _ := obs.DecodeWireSpan(msg.Span)
	if txc, ok := p.mgr.Get(def.Txn); ok && parent == "" {
		parent = txc.SpanID()
	}
	affected, err := p.execCompensation(def, parent)
	if err != nil {
		return nil, err
	}
	p.metrics.Compensations.Add(1)
	p.metrics.NodesUndone.Add(int64(affected))
	p.locks.ReleaseAll(def.Txn)
	p.invalidateDocCache(def.Docs()...)
	if txc, ok := p.mgr.Get(def.Txn); ok {
		txc.transition(StatusAborted)
	}
	return &p2p.Message{Kind: "compensate-ack"}, nil
}

// execCompensation executes def on this peer's store under a compensate
// span parented on parentSpan, timing it into the compensation histogram.
func (p *Peer) execCompensation(def *CompensationDef, parentSpan string) (int, error) {
	sp := p.tracer.Start(def.Txn, parentSpan, obs.KindCompensate, def.Service)
	start := time.Now()
	affected, err := def.Execute(p.store)
	p.histCompensate.Observe(time.Since(start))
	sp.SetAttr("nodes", strconv.Itoa(affected))
	sp.End(ErrCode(err), err)
	return affected, err
}

// setServeLSNRange brackets the WAL records a served invocation appended
// (those after index from) onto its span.
func setServeLSNRange(sp *obs.ActiveSpan, log wal.Log, txn string, from int) {
	if sp == nil {
		return
	}
	recs := log.TxnRecords(txn)
	if len(recs) > from {
		sp.SetLSNRange(recs[from].LSN, recs[len(recs)-1].LSN)
	}
}

// workNodesSince values the work a transaction performed at this peer from
// log records appended after index from — the affected-node cost measure.
func workNodesSince(log wal.Log, txn string, from int) int {
	recs := log.TxnRecords(txn)
	total := 0
	for i := from; i < len(recs); i++ {
		switch recs[i].Type {
		case wal.TypeInsert, wal.TypeDelete:
			total += recs[i].Nodes
		}
	}
	return total
}
