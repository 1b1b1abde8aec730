package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// eventKind is what happened to a transaction at this peer.
type eventKind uint8

const (
	evCommit        eventKind = iota + 1 // the origin's Commit
	evAbort                              // a local abort that tells the parent
	evAbortSilent                        // a local abort the parent learns otherwise (a failed serve's error reply) or must not
	evCommitMsg                          // a commit message from the parent
	evAbortMsg                           // an abort message from a neighbour
	evCompensateMsg                      // a shipped compensating-service definition
	evRestart                            // a restart: a live context is lost, a logged transaction recovered
)

// state is what the table reads: the live context's status (0 when the peer
// holds none) and, only when it holds none, the log's wal.TxnState.
type state struct {
	ctx                             Status
	committed, effects, compensated bool
}

// actions is one row of the table.
type actions struct {
	to      Status   // claim: the live context moves from active to this, and the row applies only if it wins
	record  wal.Type // the decision to log and send: wal.TypeCommit, wal.TypeAbort or 0
	undo    bool     // compensate: the shipped definition, else the context's own effects, else the log's
	release bool     // release the transaction's document locks
	parent  bool     // send the decision to the parent too (always to the children), unless it is the sender
	drop    bool     // forget the context
	mark    Status   // once the row succeeded, an active context moves to this (no claim)
	reject  bool     // a local commit of a decided transaction is an error
}

// next is the decision table of §3.2's terminal behaviour, the same at the
// origin and at every participant: what this peer does when ev happens to a
// transaction in st. It is pure: no Peer, no I/O, no locks. decide is the one
// executor of its rows; DESIGN.md, "Transaction decisions", prints it.
func next(st state, ev eventKind) actions {
	live, active := st.ctx != 0, st.ctx == StatusActive
	switch {
	case ev == evCompensateMsg:
		// At every status, a committed context included: only the log's
		// compensation bracket guards it.
		return actions{undo: true, release: true, mark: StatusAborted}
	case ev == evRestart && live:
		return actions{release: true, drop: true}
	case ev == evRestart && st.effects && !st.committed,
		ev == evAbortMsg && !live && st.effects && !st.committed && !st.compensated:
		return actions{undo: true, release: true}
	case active && (ev == evCommit || ev == evCommitMsg):
		return actions{to: StatusCommitted, record: wal.TypeCommit, release: true, drop: true}
	case active && (ev == evAbort || ev == evAbortMsg || ev == evAbortSilent):
		return actions{to: StatusAborted, record: wal.TypeAbort, undo: true, release: true, parent: ev != evAbortSilent}
	case live && ev == evCommit:
		return actions{reject: true}
	}
	// A decided context, or a message without a context: nothing changes.
	return actions{}
}

// event is one occurrence handed to decide.
type event struct {
	kind eventKind
	txn  string
	from p2p.PeerID       // the sender, or a failed serve's caller: never notified back
	def  *CompensationDef // evCompensateMsg: the shipped definition
	span string           // evCompensateMsg: the span the compensation parents on
}

// decide carries out ev for txc (nil when the peer holds no context). It is
// the only code, fragment migration aside, that logs or sends a commit or
// abort decision.
func (p *Peer) decide(txc *Context, ev event) error {
	var st state
	if txc != nil {
		st.ctx = txc.Status()
	} else {
		s := wal.Fold(p.store.Log().TxnRecords(ev.txn))
		st = state{committed: s.Committed, effects: len(s.Effects) > 0, compensated: s.Compensated}
	}
	a := next(st, ev.kind)
	for a.to != 0 && !txc.transition(a.to) {
		st.ctx = txc.Status()
		a = next(st, ev.kind)
	}
	if a.reject {
		return fmt.Errorf("core: commit of %s transaction %s", st.ctx, txc.ID)
	}
	var sp *obs.ActiveSpan
	var err error
	if a.record != 0 {
		kind := obs.KindCommit
		if a.record == wal.TypeAbort {
			kind = obs.KindAbort
		}
		sp = p.tracer.Start(ev.txn, txc.SpanID(), kind, txc.Service)
		// When the transaction has an earlier record in this log, a
		// decision's Append returns once it, and every effect record before
		// it, is on disk: nothing below runs ahead of it, and a crash
		// mid-compensation replays as an abort. An effect-free transaction's
		// decision is not forced; restart has nothing of it to act on.
		_, err = p.store.Log().Append(&wal.Record{Txn: ev.txn, Type: a.record})
		if txc.Self == txc.Origin && a.record == wal.TypeCommit {
			p.metrics.TxnsCommitted.Add(1)
		} else if txc.Self == txc.Origin {
			p.metrics.TxnsAborted.Add(1)
		}
	}
	def := ev.def
	if a.undo && def == nil {
		def = BuildCompensationDef(p.store, ev.txn, p.id, "")
	}
	switch {
	case !a.undo:
	case txc == nil && ev.def == nil:
		// No context: untraced, and counted only when it undid something.
		affected, cerr := def.Execute(p.store)
		if affected > 0 {
			p.metrics.Compensations.Add(1)
			p.metrics.NodesUndone.Add(int64(affected))
		}
		err = cerr
	default:
		parent := sp.ID()
		if ev.def != nil {
			parent = ev.span
		}
		csp := p.tracer.Start(def.Txn, parent, obs.KindCompensate, def.Service)
		start := time.Now()
		affected, cerr := def.Execute(p.store)
		p.histCompensate.Observe(time.Since(start))
		csp.SetAttr("nodes", strconv.Itoa(affected))
		csp.End(ErrCode(cerr), cerr)
		if ev.def != nil && cerr != nil {
			return cerr
		}
		if ev.def == nil {
			txc.AddUndoNodes(affected)
		}
		p.metrics.Compensations.Add(1)
		p.metrics.NodesUndone.Add(int64(affected))
		err = errors.Join(err, cerr)
	}
	if a.release {
		p.locks.ReleaseAll(ev.txn)
	}
	if def != nil {
		// Compensation just rewrote these documents; drop cache entries
		// recorded against them and withdraw their advertisements.
		p.invalidateDocCache(def.Docs()...)
	}
	p.notify(txc, ev, a, sp.ID())
	if a.record == wal.TypeCommit && err == nil {
		p.store.DropDeleted(ev.txn) // nothing will re-attach what it deleted
	} else if a.record == wal.TypeCommit {
		p.store.KeepDeleted(ev.txn) // not durable: restart may compensate
	}
	if a.drop {
		p.mgr.Remove(ev.txn)
	}
	if a.mark != 0 && txc != nil {
		txc.transition(a.mark)
	}
	if err != nil && a.record == wal.TypeCommit {
		p.metrics.CommitErrors.Add(1)
	} else if err != nil {
		p.metrics.AbortErrors.Add(1)
	}
	if a.record == 0 {
		return err
	}
	if ev.kind != evCommitMsg {
		setSpanChain(sp, txc.Chain()) // a participant's commit span carries no chain
	}
	sp.End(ErrCode(err), err)
	if ev.kind == evCommit {
		p.endRoot(txc, "committed", ErrCode(err), err)
	} else if a.record == wal.TypeAbort && txc.Self == txc.Origin {
		p.endRoot(txc, "aborted", CodeCompensated, nil)
	}
	return err
}

// notify sends a row's decision to the completed children but the sender,
// then, if the row says so, to the parent unless it is the sender. An abort
// is routed as the participant's shipped definition where one is held. A
// refused send is counted in DecisionSendErrors.
func (p *Peer) notify(txc *Context, ev event, a actions, span string) {
	if a.record == 0 {
		return
	}
	kind, targets := p2p.KindCommit, txc.Children()
	if a.record == wal.TypeAbort {
		// An abort also reaches each participant whose definition was shipped
		// directly (§3.2) and that is not a child: the origin can thus
		// compensate peers whose invocation path has broken.
		kind = p2p.KindAbort
		for _, def := range txc.CompDefs() {
			if !slices.ContainsFunc(targets, func(c Invocation) bool { return c.Peer == def.Peer }) {
				targets = append(targets, Invocation{Peer: def.Peer, Service: def.Service, Comp: def})
			}
		}
	}
	for _, inv := range targets {
		switch {
		case inv.Peer == ev.from || inv.Peer == p.id:
		case inv.Comp != nil && kind == p2p.KindAbort:
			p.routeCompensation(ev.txn, span, inv)
		default:
			p.sendDecision(inv.Peer, kind, ev.txn)
		}
	}
	if a.parent && txc.Parent != "" && txc.Parent != ev.from {
		p.sendDecision(txc.Parent, kind, ev.txn)
	}
}

func (p *Peer) sendDecision(to p2p.PeerID, kind, txn string) {
	if kind == p2p.KindAbort {
		p.metrics.AbortsSent.Add(1)
	}
	if p.transport.Send(context.Background(), to, &p2p.Message{Kind: kind, Txn: txn}) != nil {
		p.metrics.DecisionSendErrors.Add(1)
	}
}

// endRoot closes the origin's transaction root span with its outcome, after
// the slow-transaction hook: transactions slower than Options.SlowTxn are
// force-kept by the sampler (before the root span flushes the buffer) and
// reported to SlowTxnLog.
func (p *Peer) endRoot(txc *Context, outcome, code string, err error) {
	if p.opts.SlowTxn > 0 && !txc.began.IsZero() {
		if d := time.Since(txc.began); d >= p.opts.SlowTxn {
			p.sampler.ForceKeep(txc.ID)
			if p.opts.SlowTxnLog != nil {
				p.opts.SlowTxnLog(txc.ID, d, outcome)
			}
		}
	}
	setSpanChain(txc.rootSpan, txc.Chain())
	txc.rootSpan.End(code, err)
	txc.rootSpan = nil
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

// handleDecision processes a decision message: "Abort TA", which propagates
// away from its sender (to the children, and upward unless the parent sent
// it), a commit, which cascades to the children, or a shipped compensating
// service definition.
func (p *Peer) handleDecision(msg *p2p.Message) (*p2p.Message, error) {
	ev, ack := event{kind: evCommitMsg, txn: msg.Txn, from: msg.From}, "commit-ack"
	switch msg.Kind {
	case p2p.KindAbort:
		p.metrics.AbortsReceived.Add(1)
		ev.kind, ack = evAbortMsg, "abort-ack"
	case p2p.KindCompensate:
		def, err := DecodeCompensationDef(msg.Payload)
		if err != nil {
			return nil, err
		}
		ev, ack = event{kind: evCompensateMsg, txn: def.Txn, def: def}, "compensate-ack"
		ev.span, _ = obs.DecodeWireSpan(msg.Span)
	}
	txc, _ := p.mgr.Get(ev.txn)
	if txc != nil && ev.def != nil && ev.span == "" {
		ev.span = txc.SpanID()
	}
	if err := p.decide(txc, ev); err != nil && ev.kind == evCompensateMsg {
		return nil, err
	}
	return &p2p.Message{Kind: ack}, nil
}

// RecoverPending rolls back every transaction in the store's log that has
// structural effects but neither committed nor was fully compensated — the
// restart-time recovery pass of a peer. AXML documents are the peer's
// persistent state; after a crash they may contain effects of in-flight
// transactions, and the log's before-images are exactly what is needed to
// compensate them (§3.1's rationale for logging).
//
// It returns the IDs of the transactions it compensated. The pass is
// idempotent: compensation markers make re-runs no-ops.
func RecoverPending(store *axml.Store) ([]string, error) {
	var recovered []string
	for _, txn := range wal.PendingTxns(store.Log().Records()) {
		// After a restart no context is live; a pending transaction has
		// effects and no commit. A store alone holds no locks.
		if !next(state{effects: true}, evRestart).undo {
			continue
		}
		if _, err := Compensate(store, txn); err != nil {
			return recovered, fmt.Errorf("core: restart recovery of %s: %w", txn, err)
		}
		recovered = append(recovered, txn)
	}
	return recovered, nil
}

// RecoverPending runs restart-time recovery over this peer's store,
// updating the compensation metrics.
func (p *Peer) RecoverPending() ([]string, error) {
	recovered, err := RecoverPending(p.store)
	if len(recovered) > 0 {
		p.metrics.Compensations.Add(int64(len(recovered)))
	}
	return recovered, err
}

// Restart simulates a crash-restart of the peer: every live transaction
// context is discarded (a crashed process loses its volatile state — no
// abort messages are sent), document locks are released, and restart-time
// recovery compensates whatever the log shows as uncommitted. The store and
// log stand in for the reloaded persistent state, exactly as in
// RecoverPending's model where AXML documents plus the undo log survive the
// crash. The chaos injector uses this as the restart hook after an injected
// crash.
func (p *Peer) Restart() ([]string, error) {
	p.mgr.mu.Lock()
	live := make([]*Context, 0, len(p.mgr.ctxs))
	for _, txc := range p.mgr.ctxs {
		live = append(live, txc)
	}
	p.mgr.mu.Unlock()
	for _, txc := range live {
		_ = p.decide(txc, event{kind: evRestart, txn: txc.ID})
	}
	return p.RecoverPending()
}
