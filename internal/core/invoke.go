package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
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
