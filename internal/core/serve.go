package core

import (
	"context"
	"fmt"

	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
)

// executeLocalService runs a registry service under txc with the engine
// environment attached, acquiring the service's declared document lock.
func (p *Peer) executeLocalService(txc *Context, service string, params map[string]string) ([]string, error) {
	svc, ok := p.registry.Get(service)
	if !ok {
		return nil, fmt.Errorf("%w: %q at %s", services.ErrUnknownService, service, p.id)
	}
	desc := svc.Descriptor()
	if desc.TargetDocument != "" {
		if err := p.locks.Acquire(txc.ID, desc.TargetDocument); err != nil {
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

	// The paper's step 1 at a failed peer: abort the local context and
	// notify the peers whose services we invoked; the error reply carries the
	// abort to the invoker.
	resp, err := p.serve(txc, &req, sp, event{kind: evAbortSilent, txn: req.Txn, from: req.Caller})
	if err != nil {
		return &p2p.Message{Kind: p2p.KindResult, Txn: req.Txn,
			Subject: faultNameOf(err), Err: err.Error(), Code: ErrCode(err)}, nil
	}
	return &p2p.Message{Kind: p2p.KindResult, Txn: req.Txn, Payload: encode(resp)}, nil
}

// serve runs a served invocation under its span sp: the service, then the
// write-ahead barrier. Its reply, async push and shipped definition are all
// derived from the records it just appended, so none of them may leave
// before those records are durable; a failed barrier fails the invocation.
// A failure is decided as onFail, a success builds the reply.
func (p *Peer) serve(txc *Context, req *InvokeRequest, sp *obs.ActiveSpan, onFail event) (*InvokeResponse, error) {
	logBefore := len(p.store.Log().TxnRecords(req.Txn))
	frags, err := p.executeLocalService(txc, req.Service, req.Params)
	if err == nil {
		err = p.syncLog()
	}
	setServeLSNRange(sp, p.store.Log(), req.Txn, logBefore)
	setSpanChain(sp, txc.Chain())
	sp.End(ErrCode(err), err)
	if err != nil {
		_ = p.decide(txc, onFail)
		return nil, err
	}
	return p.serveResponse(txc, req, frags, logBefore), nil
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
	resp, err := p.serve(txc, req, sp, event{kind: evAbort, txn: req.Txn})
	if err != nil {
		return
	}
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
	p.deliverResult(msg.Txn, &resp)
}

// deliverResult hands an invocation result to the OnResult callback, if any.
func (p *Peer) deliverResult(txn string, resp *InvokeResponse) {
	p.mu.Lock()
	cb := p.onResult
	p.mu.Unlock()
	if cb != nil {
		cb(txn, resp)
	}
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
