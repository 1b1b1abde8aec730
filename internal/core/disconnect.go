package core

import (
	"context"

	"axmltx/internal/obs"
	"axmltx/internal/p2p"
)

// This file implements §3.3: handling peer disconnection using the chained
// active-peer list. The scenarios map onto engine events as follows:
//
//	(a) leaf disconnection, detected by the parent: the synchronous
//	    invocation (or the ping detector) surfaces ErrUnreachable, which
//	    the nested recovery machinery in invoke.go treats as the
//	    "disconnected" fault — handlers/replica retry, else abort.
//	(b) parent disconnection, detected by the child returning results:
//	    runAsync's push fails; redirectPastDeadParent walks the chain to
//	    the closest live ancestor (or super peer) and hands it the results
//	    together with a disconnection notice.
//	(c) child disconnection, detected by the parent's keep-alive pinger:
//	    OnPeerDown notifies the dead peer's descendants (so they stop
//	    wasting effort) and attempts forward recovery, reusing any
//	    redirected descendant work.
//	(d) sibling disconnection, detected by a missed stream batch: the
//	    sibling notifies the dead peer's parent and children, which then
//	    proceed as in (b)/(c).

// redirectPastDeadParent implements the child side of scenario (b): the
// results of `service` could not be delivered to dead; send them to the
// closest live ancestor from the active peer list, falling back to the
// closest super peer, so the work is not discarded.
func (p *Peer) redirectPastDeadParent(txc *Context, dead p2p.PeerID, service string, resp *InvokeResponse) {
	chain := txc.Chain()
	if chain == nil || p.opts.DisableChaining {
		// Traditional recovery: nobody to hand the results to; the work is
		// lost and will be discarded when recovery reaches us.
		p.metrics.NodesLost.Add(int64(resp.Nodes))
		return
	}
	sp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindRedirect, service)
	sp.SetAttr("dead", string(dead))
	setSpanChain(sp, chain)
	payload := &RedirectResult{Txn: txc.ID, Dead: dead, Service: service, Response: *resp}
	msg := &p2p.Message{Kind: p2p.KindRedirect, Txn: txc.ID, Subject: service,
		Payload: encode(payload), Span: sp.ID()}
	bg := context.Background()

	// "AP6 can send the results directly to AP2 ... it is very likely that
	// even AP2 might have disconnected. Given this, AP6 can try the next
	// closest peer or the closest super peer in the list."
	tried := map[p2p.PeerID]bool{dead: true}
	for _, ancestor := range chain.AncestorsOf(dead) {
		if tried[ancestor] {
			continue
		}
		tried[ancestor] = true
		if p.sendRedirect(bg, ancestor, msg) {
			sp.SetTarget(string(ancestor))
			sp.End("", nil)
			return
		}
		p.metrics.DisconnectsDetected.Add(1)
	}
	if superPeer, ok := chain.ClosestSuperAncestor(dead); ok && !tried[superPeer] {
		if p.sendRedirect(bg, superPeer, msg) {
			sp.SetTarget(string(superPeer))
			sp.End("", nil)
			return
		}
	}
	// Every ancestor is gone; the work really is lost.
	p.metrics.NodesLost.Add(int64(resp.Nodes))
	sp.End(CodePeerDown, ErrPeerDown)
}

// sendRedirect sends a redirect to ancestor and reports whether it went.
// The redirect is counted before the send, because the receiver may act on
// it (and a watcher read Redirects) before Send returns, and un-counted if
// the send fails.
func (p *Peer) sendRedirect(ctx context.Context, ancestor p2p.PeerID, msg *p2p.Message) bool {
	p.metrics.Redirects.Add(1)
	if err := p.transport.Send(ctx, ancestor, msg); err != nil {
		p.metrics.Redirects.Add(-1)
		return false
	}
	return true
}

// handleRedirect is the ancestor side of scenario (b): record the salvaged
// work, inform ourselves of the disconnection, and run the nested recovery
// protocol for the dead peer's invocation.
func (p *Peer) handleRedirect(msg *p2p.Message) (*p2p.Message, error) {
	var rr RedirectResult
	if err := decode(msg.Payload, &rr); err != nil {
		return nil, err
	}
	p.metrics.Redirects.Add(1)
	sp := p.tracer.Start(rr.Txn, msg.Span, obs.KindRedirect, rr.Service)
	sp.SetAttr("dead", string(rr.Dead))
	sp.SetTarget(string(msg.From))
	sp.End("", nil)
	txc, ok := p.mgr.Get(rr.Txn)
	if ok {
		// The redirected fragments substitute for the dead subtree's
		// service when we (or an alternative peer we engage) re-invoke.
		txc.storeReused(map[string][]string{rr.Service: rr.Response.Fragments})
		if inv := p.childInvocation(msg.From, rr.Service, rr.Response.Comp); inv.Comp != nil {
			txc.AddChild(inv)
		}
	}
	p.noteDisconnection(rr.Txn, rr.Dead, p.id)
	p.deliverResult(rr.Txn, &rr.Response)
	return &p2p.Message{Kind: "redirect-ack"}, nil
}

// OnPeerDown is the entry point for scenario (c): the keep-alive detector
// (or any caller) reports a peer dead. For every active transaction whose
// chain includes the dead peer, the engine notifies the dead peer's
// relatives and recovers.
func (p *Peer) OnPeerDown(dead p2p.PeerID) {
	p.metrics.DisconnectsDetected.Add(1)
	for _, txn := range p.mgr.Active() {
		txc, ok := p.mgr.Get(txn)
		if !ok {
			continue
		}
		chain := txc.Chain()
		if chain == nil || !chain.Contains(dead) {
			continue
		}
		p.noteDisconnection(txn, dead, p.id)
	}
	p.replicas.RemovePeer(dead)
}

// NotifySiblingDown is the entry point for scenario (d): a sibling detected
// the producer of its stream silent. Using the chain, it notifies the dead
// peer's parent and children, which then follow scenarios (c) and (b)
// respectively.
func (p *Peer) NotifySiblingDown(txn string, dead p2p.PeerID) {
	p.metrics.DisconnectsDetected.Add(1)
	txc, ok := p.mgr.Get(txn)
	if !ok {
		return
	}
	chain := txc.Chain()
	if chain == nil || p.opts.DisableChaining {
		return
	}
	bg := context.Background()
	notice := &DisconnectNotice{Txn: txn, Dead: dead, Detected: p.id}
	payload := encode(notice)
	targets := append([]p2p.PeerID{}, chain.ChildrenOf(dead)...)
	if parent := chain.ParentOf(dead); parent != "" {
		targets = append(targets, parent)
	}
	for _, t := range targets {
		if t == p.id {
			p.noteDisconnection(txn, dead, p.id)
			continue
		}
		_ = p.transport.Send(bg, t, &p2p.Message{Kind: p2p.KindDisconnect, Txn: txn, Payload: payload})
	}
}

// handleDisconnect processes a disconnection notice about another peer.
func (p *Peer) handleDisconnect(msg *p2p.Message) {
	var notice DisconnectNotice
	if err := decode(msg.Payload, &notice); err != nil {
		return
	}
	p.noteDisconnection(notice.Txn, notice.Dead, notice.Detected)
}

// noteDisconnection reacts to "peer dead during txn" according to our
// position in the chain relative to the dead peer:
//
//   - we are its parent → recover the subtree: descendants of dead are told
//     to stop, then forward recovery via an alternative provider (reusing
//     salvaged descendant work), else nested abort;
//   - we are a descendant → our work is doomed unless redirected; abort the
//     local context to stop wasting effort ("prevent them from wasting
//     effort (doing work which is ultimately going to be discarded)");
//   - otherwise (ancestor levels above the parent, siblings) → forward the
//     responsibility to the parent if it is alive, else handle it here as
//     the closest live ancestor.
func (p *Peer) noteDisconnection(txn string, dead p2p.PeerID, detectedBy p2p.PeerID) {
	txc, ok := p.mgr.Get(txn)
	if !ok {
		return
	}
	p.mu.Lock()
	cb := p.onDown
	p.mu.Unlock()
	if cb != nil {
		defer cb(txn, dead)
	}
	chain := txc.Chain()
	if chain == nil || p.opts.DisableChaining || !chain.Contains(dead) {
		// Without chaining the only safe reaction is the nested recovery
		// protocol from our own position: abort.
		_ = p.decide(txc, event{kind: evAbort, txn: txc.ID})
		return
	}
	// Descendant of the dead peer: stop work, discard local effects.
	for _, anc := range chain.AncestorsOf(p.id) {
		if anc == dead {
			p.metrics.NodesLost.Add(int64(workNodesSince(p.store.Log(), txn, 0)))
			_ = p.decide(txc, event{kind: evAbortSilent, txn: txc.ID})
			return
		}
	}
	if chain.ParentOf(dead) == p.id {
		p.recoverDeadChild(txc, chain, dead)
		return
	}
	// We are a further ancestor or a sibling: delegate to the dead peer's
	// parent when reachable, otherwise act as the closest live ancestor.
	parent := chain.ParentOf(dead)
	if parent != "" && parent != p.id {
		notice := &DisconnectNotice{Txn: txn, Dead: dead, Detected: detectedBy}
		if err := p.transport.Send(context.Background(), parent,
			&p2p.Message{Kind: p2p.KindDisconnect, Txn: txn, Payload: encode(notice)}); err == nil {
			return
		}
		p.metrics.DisconnectsDetected.Add(1)
	}
	p.recoverDeadChild(txc, chain, dead)
}

// recoverDeadChild performs the parent-side recovery of scenario (c): tell
// the orphaned descendants to stop, then try to redo the dead peer's
// service on an alternative provider (forward recovery), reusing any
// salvaged results; if no alternative exists, abort by the nested protocol.
func (p *Peer) recoverDeadChild(txc *Context, chain *Chain, dead p2p.PeerID) {
	bg := context.Background()
	notice := encode(&DisconnectNotice{Txn: txc.ID, Dead: dead, Detected: p.id})
	for _, desc := range chain.DescendantsOf(dead) {
		_ = p.transport.Send(bg, desc, &p2p.Message{Kind: p2p.KindDisconnect, Txn: txc.ID, Payload: notice})
	}

	service := chain.ServiceAt(dead)
	if service == "" {
		_ = p.decide(txc, event{kind: evAbort, txn: txc.ID})
		return
	}
	if alt, ok := p.replicas.Alternative(service, dead); ok && txc.Status() == StatusActive {
		rsp := p.tracer.Start(txc.ID, txc.SpanID(), obs.KindRetry, service)
		rsp.SetTarget(string(alt))
		rsp.SetAttr("dead", string(dead))
		req := &InvokeRequest{
			Txn:     txc.ID,
			Origin:  txc.Origin,
			Caller:  p.id,
			Service: service,
			Reused:  txc.reusedSnapshot(),
		}
		if !p.opts.DisableChaining {
			req.Chain = chain.Add(p.id, alt, service, false)
		}
		if len(req.Reused) > 0 {
			p.metrics.WorkReused.Add(int64(len(req.Reused)))
			rsp.SetAttr("reused", "true")
		}
		msg := &p2p.Message{Kind: p2p.KindInvoke, Txn: txc.ID, Subject: service,
			Payload: encode(req), Span: rsp.ID()}
		reply, err := p.transport.Request(bg, alt, msg)
		if err == nil && reply.Err == "" {
			var resp InvokeResponse
			if decode(reply.Payload, &resp) == nil {
				if resp.Chain != nil && !p.opts.DisableChaining {
					txc.SetChain(resp.Chain)
				}
				txc.AddChild(p.childInvocation(alt, service, resp.Comp))
				p.metrics.ForwardRecoveries.Add(1)
				setSpanChain(rsp, txc.Chain())
				rsp.End("", nil)
				p.deliverResult(txc.ID, &resp)
				return
			}
		}
		code := CodePeerDown
		if err == nil && reply != nil && reply.Code != "" {
			code = reply.Code
		}
		rsp.End(code, err)
	}
	p.metrics.BackwardRecoveries.Add(1)
	_ = p.decide(txc, event{kind: evAbort, txn: txc.ID})
}

// StreamTo pushes one continuous-service batch directly to a sibling
// (scenario d's data flow). It returns the transport error so the producer
// notices subscriber death.
func (p *Peer) StreamTo(target p2p.PeerID, batch *StreamBatch) error {
	return p.transport.Send(context.Background(), target,
		&p2p.Message{Kind: p2p.KindStream, Txn: batch.Txn, Subject: batch.Service, Payload: encode(batch)})
}

// handleStream delivers a stream batch to the registered sink.
func (p *Peer) handleStream(msg *p2p.Message) {
	var batch StreamBatch
	if err := decode(msg.Payload, &batch); err != nil {
		return
	}
	p.mu.Lock()
	sink := p.streamSink
	p.mu.Unlock()
	if sink != nil {
		sink(&batch)
	}
}

// SpheresOfAtomicityHolds reports whether the transaction's atomicity is
// guaranteed despite possible disconnections: all participants in the
// chain are super peers (§3.3, Spheres of Atomicity).
func (p *Peer) SpheresOfAtomicityHolds(txc *Context) bool {
	chain := txc.Chain()
	return chain != nil && chain.SphereOfAtomicity()
}
