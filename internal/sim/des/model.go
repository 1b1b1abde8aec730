package des

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/chaos"
	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// Config sets the virtual cost model. Zero values make every operation
// free — the right setting for outcome-equivalence runs, where only event
// order matters.
type Config struct {
	// Latency is the virtual one-way delivery cost of a message.
	Latency time.Duration
	// WALSync is the durability barrier cost paid at commit/abort records.
	WALSync time.Duration
	// WorkCost is the cost of producing one WAL effect record.
	WorkCost time.Duration
	// PrunableLogs selects the scale-mode log (per-transaction storage that
	// supports dropping settled transactions) instead of wal.MemoryLog.
	PrunableLogs bool
}

// Plan describes one transaction's invocation tree over the deployment:
// which peer originates and who calls whom (document order).
type Plan struct {
	Txn         string
	Origin      p2p.PeerID
	Children    map[p2p.PeerID][]p2p.PeerID
	Parent      map[p2p.PeerID]p2p.PeerID
	WorkEntries int
}

// Participants returns every peer in the plan, origin first, in
// breadth-first document order.
func (pl *Plan) Participants() []p2p.PeerID {
	out := []p2p.PeerID{pl.Origin}
	for i := 0; i < len(out); i++ {
		out = append(out, pl.Children[out[i]]...)
	}
	return out
}

func (pl *Plan) ancestorsOf(id p2p.PeerID) []p2p.PeerID {
	var out []p2p.PeerID
	for cur := pl.Parent[id]; cur != ""; cur = pl.Parent[cur] {
		out = append(out, cur)
	}
	return out
}

// ctx status values mirror core's context lifecycle.
type status int

const (
	statusActive status = iota
	statusAborted
	statusCommitted
)

// mctx is the model's transaction context: the fields of core.Context the
// recovery protocol actually branches on.
type mctx struct {
	txn    string
	origin p2p.PeerID
	parent p2p.PeerID
	status status
	// children lists completed child invocations in AddChild order — the
	// set commit/abort notifications cascade to.
	children []p2p.PeerID
}

// Deployment is a simulated cluster: model peers wired through the chaos
// injector over a synchronous in-process transport, driven by the
// scheduler's virtual clock. Everything is single-threaded.
type Deployment struct {
	Sched *Sched
	Inj   *chaos.Injector
	Cfg   Config

	peers map[p2p.PeerID]*Peer
	order []p2p.PeerID
	plans map[string]*Plan

	// frames is the cost stack for the currently-executing invocation
	// tree; lastCall carries a finished child invocation's subtree cost
	// back to its parent (single-threaded, so a scalar suffices).
	frames   []time.Duration
	lastCall time.Duration

	// jitter, when set, spreads per-message and per-record costs over
	// [0.5x, 1.5x) so latency percentiles have a real distribution. The
	// draws come from the run's single workload RNG, so they are part of
	// the deterministic event order.
	jitter *rand.Rand

	msgTotal  int64
	msgByKind map[string]int64
}

// NewDeployment wires a deployment to a scheduler and injector. The
// injector is switched to the virtual clock and synchronous restarts.
func NewDeployment(s *Sched, inj *chaos.Injector, cfg Config) *Deployment {
	inj.SetClock(s.Clock())
	inj.SetSynchronousRestart(true)
	return &Deployment{
		Sched:     s,
		Inj:       inj,
		Cfg:       cfg,
		peers:     make(map[p2p.PeerID]*Peer),
		plans:     make(map[string]*Plan),
		msgByKind: make(map[string]int64),
	}
}

// AddPeer creates a model peer, wraps its transport in the injector, and
// registers its restart hook.
func (d *Deployment) AddPeer(id p2p.PeerID) *Peer {
	var log wal.Log
	var dropper *pruneLog
	if d.Cfg.PrunableLogs {
		pl := newPruneLog()
		log, dropper = pl, pl
	} else {
		log = wal.NewMemory()
	}
	p := &Peer{
		d:       d,
		id:      id,
		log:     log,
		dropper: dropper,
		ctxs:    make(map[string]*mctx),
		live:    make(map[string]map[uint64]bool),
		results: make(map[string]map[uint64][]uint64),
	}
	tr := d.Inj.Wrap(&desTransport{d: d, id: id})
	tr.SetHandler(p.handle)
	p.tr = tr
	d.peers[id] = p
	d.order = append(d.order, id)
	d.Inj.OnRestart(id, p.restart)
	return p
}

// Peer returns the model peer by ID.
func (d *Deployment) Peer(id p2p.PeerID) *Peer { return d.peers[id] }

// Order returns peer IDs in creation order.
func (d *Deployment) Order() []p2p.PeerID { return d.order }

// AddPlan registers a transaction plan; RunTxn executes it.
func (d *Deployment) AddPlan(pl *Plan) { d.plans[pl.Txn] = pl }

// DropPlan forgets a settled transaction's plan (scale-mode cleanup).
func (d *Deployment) DropPlan(txn string) { delete(d.plans, txn) }

// MessagesTotal returns the number of model messages delivered.
func (d *Deployment) MessagesTotal() int64 { return d.msgTotal }

// SetJitter installs the cost-jitter RNG (scale mode).
func (d *Deployment) SetJitter(r *rand.Rand) { d.jitter = r }

func (d *Deployment) scatter(c time.Duration) time.Duration {
	if d.jitter == nil || c == 0 {
		return c
	}
	return time.Duration(float64(c) * (0.5 + d.jitter.Float64()))
}

// lat returns one message-delivery cost sample; work one record cost.
func (d *Deployment) lat() time.Duration  { return d.scatter(d.Cfg.Latency) }
func (d *Deployment) work() time.Duration { return d.scatter(d.Cfg.WorkCost) }

func (d *Deployment) pushFrame() { d.frames = append(d.frames, 0) }
func (d *Deployment) charge(c time.Duration) {
	if n := len(d.frames); n > 0 && c > 0 {
		d.frames[n-1] += c
	}
}
func (d *Deployment) popFrame() time.Duration {
	n := len(d.frames)
	c := d.frames[n-1]
	d.frames = d.frames[:n-1]
	return c
}

// RunTxn drives one transaction end-to-end on the origin, exactly like
// core.Peer.Run + Commit/Abort: begin, materialize the invocation tree,
// then commit on success or abort-cascade on failure. It returns whether
// the transaction committed and its virtual critical-path latency.
func (d *Deployment) RunTxn(txn string) (committed bool, latency time.Duration) {
	pl := d.plans[txn]
	o := d.peers[pl.Origin]
	c := &mctx{txn: txn, origin: pl.Origin, status: statusActive}
	o.ctxs[txn] = c

	d.pushFrame()
	err := o.execute(txn)
	if err != nil {
		o.abortContext(c, "", true) // parent=="" so no upward notify
		return false, d.popFrame()
	}
	// Commit: transition, durable decision record, cascade to children.
	if c.status != statusActive {
		return false, d.popFrame()
	}
	c.status = statusCommitted
	o.append(&wal.Record{Txn: txn, Type: wal.TypeCommit})
	d.charge(d.scatter(d.Cfg.WALSync))
	for _, ch := range c.children {
		_ = o.tr.Send(context.Background(), ch, &p2p.Message{Kind: p2p.KindCommit, Txn: txn})
		d.charge(d.lat())
	}
	return true, d.popFrame()
}

// Reconcile re-sends the final decision to every listed peer (idempotent
// handlers) until the transaction's invariants hold on all of them or the
// state stops changing. It mirrors chaos.Cluster.Settle but needs no
// wall-clock polling: the model is synchronous, so a fixed number of rounds
// either converges or never will.
func (d *Deployment) Reconcile(txn string, committed bool, peers []p2p.PeerID) []string {
	rec := &desTransport{d: d, id: "__reconciler__"}
	kind := p2p.KindAbort
	if committed {
		kind = p2p.KindCommit
	}
	var last []string
	for round := 0; round < 8; round++ {
		for _, id := range peers {
			_ = rec.Send(context.Background(), id, &p2p.Message{Kind: kind, Txn: txn})
		}
		v := d.Violations(txn, committed, peers)
		if len(v) == 0 {
			return nil
		}
		if last != nil && slices.Equal(v, last) {
			return v
		}
		last = v
	}
	return last
}

// Violations runs the chaos harness's per-log laws over the listed peers,
// plus the restored-work check for aborted transactions, so the strings
// match RunChaosTree's by construction.
func (d *Deployment) Violations(txn string, committed bool, peers []p2p.PeerID) []string {
	var out []string
	for _, id := range peers {
		p := d.peers[id]
		// LSN contiguity only holds on unpruned logs; scale mode drops
		// settled transactions, leaving gaps by design.
		if d.Cfg.PrunableLogs {
			out = append(out, chaos.TxnViolations(id, p.log, txn)...)
		} else {
			out = append(out, chaos.LogViolations(id, p.log, txn)...)
		}
	}
	if !committed {
		// The model equivalent of a work document differing from its
		// snapshot: live work entries of txn remain.
		for _, id := range peers {
			if p := d.peers[id]; len(p.live[txn]) > 0 {
				out = append(out, chaos.RestoredViolation(id, p.workDoc()))
			}
		}
	}
	return out
}

// DropTxn releases a settled transaction's per-peer state (records, live
// sets, contexts) on the listed peers. Scale mode calls it once a
// transaction's invariants have been checked.
func (d *Deployment) DropTxn(txn string, peers []p2p.PeerID) {
	for _, id := range peers {
		p := d.peers[id]
		if p.dropper != nil {
			p.dropper.Drop(txn)
		}
		delete(p.live, txn)
		delete(p.results, txn)
		delete(p.ctxs, txn)
	}
	delete(d.plans, txn)
}

// Peer is one simulated AXML peer: a WAL, the live transaction contexts,
// the set of live work entries per transaction standing in for its work
// document, and the results each service call of its composition document
// holds per transaction.
type Peer struct {
	d        *Deployment
	id       p2p.PeerID
	tr       p2p.Transport // chaos-wrapped
	log      wal.Log
	dropper  *pruneLog
	ctxs     map[string]*mctx
	nextNode uint64
	live     map[string]map[uint64]bool // txn -> live inserted node IDs
	// results maps txn -> service-call node ID -> its result node IDs, in
	// document order. The work call is node scWork, child i's call node
	// scWork+1+i, like the engine's composition document.
	results map[string]map[uint64][]uint64
}

// scWork is the node ID of the local work call in a composition document;
// resultXML is the fragment every call's result stands for.
const (
	scWork    = 2
	resultXML = "<updateResult/>"
)

// Log exposes the peer's WAL for invariant checks and tests.
func (p *Peer) Log() wal.Log { return p.log }

func (p *Peer) append(r *wal.Record) {
	if _, err := p.log.Append(r); err != nil {
		panic(fmt.Sprintf("des: model log append: %v", err))
	}
}

func (p *Peer) workDoc() string {
	return "Work" + strings.TrimPrefix(string(p.id), "P") + ".xml"
}

func (p *Peer) compDoc() string {
	return "Comp" + strings.TrimPrefix(string(p.id), "P") + ".xml"
}

func serviceOf(id p2p.PeerID) string {
	return "S" + strings.TrimPrefix(string(id), "P")
}

func (p *Peer) liveAdd(txn string, id uint64) {
	m := p.live[txn]
	if m == nil {
		m = make(map[uint64]bool)
		p.live[txn] = m
	}
	m[id] = true
}

func (p *Peer) liveDel(txn string, id uint64) { delete(p.live[txn], id) }

// handle is the transport handler, dispatching like core's recovery
// handler. It runs behind the chaos wrapper's crashed-receiver guard.
func (p *Peer) handle(ctx context.Context, msg *p2p.Message) (*p2p.Message, error) {
	switch msg.Kind {
	case p2p.KindInvoke:
		return p.handleInvoke(msg)
	case p2p.KindAbort:
		p.handleAbort(msg)
		return nil, nil
	case p2p.KindCommit:
		p.handleCommit(msg)
		return nil, nil
	case p2p.KindChainUpdate:
		// The model keeps no chain state: plans already encode ancestry.
		return nil, nil
	case p2p.KindPing:
		return &p2p.Message{Kind: p2p.KindPong}, nil
	default:
		return nil, nil
	}
}

// handleInvoke mirrors core's participant path: BeginParticipant (fresh
// epoch if previously aborted), run the service calls, and on failure
// abort locally (skipping the caller, no upward notify — the error reply
// carries the failure) before returning the fault.
func (p *Peer) handleInvoke(msg *p2p.Message) (*p2p.Message, error) {
	p.d.pushFrame()
	defer func() { p.d.lastCall = p.d.popFrame() }()

	pl := p.d.plans[msg.Txn]
	if pl == nil {
		return nil, fmt.Errorf("des: no plan for txn %s", msg.Txn)
	}
	c := p.ctxs[msg.Txn]
	if c == nil {
		c = &mctx{txn: msg.Txn, origin: pl.Origin, parent: pl.Parent[p.id], status: statusActive}
		p.ctxs[msg.Txn] = c
	} else if c.status == statusAborted {
		// Re-invocation after a local abort: fresh epoch, same context.
		c.status = statusActive
		c.children = nil
	}
	if err := p.execute(msg.Txn); err != nil {
		p.abortContext(c, msg.From, false)
		return &p2p.Message{Kind: p2p.KindResult, Txn: msg.Txn, Subject: "fault", Err: err.Error()}, nil
	}
	n := 0
	for _, ids := range p.results[msg.Txn] {
		n += len(ids)
	}
	return &p2p.Message{Kind: p2p.KindResult, Txn: msg.Txn, Payload: strconv.AppendInt(nil, int64(n), 10)}, nil
}

// execute materializes the peer's service-call document for txn: the local
// work service first (document order), then chain propagation for every
// remote call, then the remote calls themselves, then reply processing —
// the exact shape of the three phases of core.Peer.Invoke over the
// in-memory transport's synchronous delivery. Like the engine, it runs in
// full on every invocation, a duplicated one included: each call's new
// results replace the ones it holds.
func (p *Peer) execute(txn string) error {
	c := p.ctxs[txn]
	pl := p.d.plans[txn]

	// Local work service: WorkEntries inserts into the work document, then
	// its result.
	for i := 0; i < pl.WorkEntries; i++ {
		p.nextNode++
		id := p.nextNode
		p.append(&wal.Record{
			Txn: txn, Type: wal.TypeInsert, Doc: p.workDoc(),
			NodeID: id, ParentID: 1, Pos: i,
			XML: fmt.Sprintf("<entry peer=%q n=\"%d\"/>", p.id, i),
		})
		p.liveAdd(txn, id)
		p.d.charge(p.d.work())
	}
	p.merge(txn, scWork, 1)

	kids := pl.Children[p.id]
	if len(kids) == 0 {
		return nil
	}

	// Phase 1: per remote call, extend the chain and push the update to
	// every ancestor (one-way sends; distinct edges, so ordering among
	// ancestors cannot perturb the injector's per-edge coins).
	ancestors := pl.ancestorsOf(p.id)
	bg := context.Background()
	for range kids {
		for _, a := range ancestors {
			_ = p.tr.Send(bg, a, &p2p.Message{Kind: p2p.KindChainUpdate, Txn: txn})
			p.d.charge(p.d.lat())
		}
	}

	// Phase 2: the invocation requests. The real engine issues them
	// concurrently; over the synchronous in-memory transport each is a
	// nested call, and the injector's per-edge decisions are independent
	// of inter-edge order, so sequential issue is outcome-equivalent.
	// Latency is accounted as the parallel maximum over children.
	type callRes struct {
		child p2p.PeerID
		reply *p2p.Message
		err   error
	}
	results := make([]callRes, 0, len(kids))
	var maxChild time.Duration
	for _, ch := range kids {
		p.d.lastCall = 0
		reply, err := p.tr.Request(bg, ch, &p2p.Message{Kind: p2p.KindInvoke, Txn: txn, Subject: serviceOf(ch)})
		results = append(results, callRes{child: ch, reply: reply, err: err})
		if cc := p.d.lat() + p.d.lat() + p.d.lastCall; cc > maxChild {
			maxChild = cc
		}
	}
	p.d.charge(maxChild)

	// Phase 3: process replies in document order. Successes register as
	// children (even after an earlier failure — the real engine processes
	// the whole batch); results merge up to the first failure, which
	// becomes the materialization error.
	var firstErr error
	for i, r := range results {
		switch {
		case r.err != nil:
			if firstErr == nil {
				firstErr = r.err
			}
		case r.reply != nil && r.reply.Err != "":
			if firstErr == nil {
				firstErr = errors.New(r.reply.Err)
			}
		default:
			c.children = append(c.children, r.child)
			if firstErr == nil {
				n, _ := strconv.Atoi(string(r.reply.Payload))
				p.merge(txn, scWork+1+uint64(i), n)
			}
		}
	}
	return firstErr
}

// merge logs one call's materialization in the composition document, like
// the engine's replace mode: the call's previous results are deleted, then
// its n new results inserted.
func (p *Peer) merge(txn string, sc uint64, n int) {
	calls := p.results[txn]
	if calls == nil {
		calls = make(map[uint64][]uint64)
		p.results[txn] = calls
	}
	for _, id := range calls[sc] {
		p.append(&wal.Record{Txn: txn, Type: wal.TypeDelete, Doc: p.compDoc(), NodeID: id, ParentID: sc, XML: resultXML, Nodes: 1})
		p.d.charge(p.d.work())
	}
	calls[sc] = calls[sc][:0]
	for i := 0; i < n; i++ {
		p.nextNode++
		p.append(&wal.Record{Txn: txn, Type: wal.TypeInsert, Doc: p.compDoc(), NodeID: p.nextNode, ParentID: sc, Pos: i, XML: resultXML})
		calls[sc] = append(calls[sc], p.nextNode)
		p.d.charge(p.d.work())
	}
}

// abortContext mirrors core's abortContext: idempotent transition, durable
// abort record, local compensation, then the abort cascade to children
// (skipping the notifier) and optionally the parent.
func (p *Peer) abortContext(c *mctx, skip p2p.PeerID, notifyParent bool) {
	if c.status != statusActive {
		return
	}
	c.status = statusAborted
	p.append(&wal.Record{Txn: c.txn, Type: wal.TypeAbort})
	p.d.charge(p.d.scatter(p.d.Cfg.WALSync))
	p.compensate(c.txn)
	bg := context.Background()
	for _, ch := range c.children {
		if ch == skip {
			continue
		}
		_ = p.tr.Send(bg, ch, &p2p.Message{Kind: p2p.KindAbort, Txn: c.txn})
		p.d.charge(p.d.lat())
	}
	if notifyParent && c.parent != "" && c.parent != skip {
		_ = p.tr.Send(bg, c.parent, &p2p.Message{Kind: p2p.KindAbort, Txn: c.txn})
		p.d.charge(p.d.lat())
	}
}

// handleAbort mirrors core: without a context, compensate from the log
// alone only when it holds effects that neither a commit nor a completed
// compensation settled (a stray abort writes nothing); with one, run the
// abort cascade, notifying the parent only when the abort came from
// elsewhere.
func (p *Peer) handleAbort(msg *p2p.Message) {
	c := p.ctxs[msg.Txn]
	if c == nil {
		if wal.Fold(p.log.TxnRecords(msg.Txn)).Pending() {
			p.compensate(msg.Txn)
		}
		return
	}
	p.abortContext(c, msg.From, msg.From != c.parent)
}

// handleCommit mirrors core: no context means nothing to do (already
// settled or never participated); an aborted context refuses the
// transition. Commit is durable, cascades to children, and retires the
// context.
func (p *Peer) handleCommit(msg *p2p.Message) {
	c := p.ctxs[msg.Txn]
	if c == nil || c.status != statusActive {
		return
	}
	c.status = statusCommitted
	p.append(&wal.Record{Txn: msg.Txn, Type: wal.TypeCommit})
	p.d.charge(p.d.scatter(p.d.Cfg.WALSync))
	bg := context.Background()
	for _, ch := range c.children {
		_ = p.tr.Send(bg, ch, &p2p.Message{Kind: p2p.KindCommit, Txn: msg.Txn})
		p.d.charge(p.d.lat())
	}
	delete(p.ctxs, msg.Txn)
}

// compensate mirrors core.Compensate over the model's state: skip when the
// last bracket already completed, otherwise build the reverse actions from
// the WAL (core.BuildCompensation — the shared, epoch-aware builder) and
// apply them, bracketed by CompensateBegin/End. The bracket is written
// even when there is nothing to undo, exactly like the real store path.
func (p *Peer) compensate(txn string) {
	if wal.Fold(p.log.TxnRecords(txn)).Compensated {
		return
	}
	acts := core.BuildCompensation(p.log, txn)
	p.append(&wal.Record{Txn: txn, Type: wal.TypeCompensateBegin})
	for _, a := range acts {
		id := uint64(a.TargetID)
		switch a.Type {
		case axml.ActionDelete:
			p.append(&wal.Record{Txn: txn, Type: wal.TypeDelete, Doc: a.Doc, NodeID: id, Pos: -1})
		case axml.ActionInsert:
			id = uint64(a.RestoreID)
			p.append(&wal.Record{
				Txn: txn, Type: wal.TypeInsert, Doc: a.Doc,
				NodeID: id, ParentID: uint64(a.ParentID), Pos: a.Pos, XML: a.Data,
			})
		}
		p.undo(txn, a.Type == axml.ActionInsert, a.Doc, uint64(a.ParentID), id)
		p.d.charge(p.d.work())
	}
	p.append(&wal.Record{Txn: txn, Type: wal.TypeCompensateEnd})
}

// undo applies one compensating action to the model's documents: a work
// entry or a call's result comes back (restore) or goes.
func (p *Peer) undo(txn string, restore bool, doc string, parent, id uint64) {
	if doc == p.workDoc() {
		if restore {
			p.liveAdd(txn, id)
		} else {
			p.liveDel(txn, id)
		}
		return
	}
	calls := p.results[txn]
	if restore {
		calls[parent] = append(calls[parent], id)
		return
	}
	for sc, ids := range calls {
		if i := slices.Index(ids, id); i >= 0 {
			calls[sc] = slices.Delete(ids, i, i+1)
		}
	}
}

// restart is the crash-recovery hook (chaos.Injector.OnRestart): volatile
// contexts are lost, then WAL replay compensates every transaction with
// effects but no local commit decision — core.Peer.Restart's RecoverPending
// over the model state.
func (p *Peer) restart() {
	p.ctxs = make(map[string]*mctx)
	for _, txn := range wal.PendingTxns(p.log.Records()) {
		p.compensate(txn)
	}
}

// desTransport is the DES in-process transport: synchronous nested
// delivery like p2p's memTransport, but with no goroutines, no locks and
// no wall-clock — the chaos wrapper above it supplies every failure mode.
type desTransport struct {
	d  *Deployment
	id p2p.PeerID
	h  p2p.Handler
}

var _ p2p.Transport = (*desTransport)(nil)

func (t *desTransport) Self() p2p.PeerID         { return t.id }
func (t *desTransport) SetHandler(h p2p.Handler) { t.h = h }
func (t *desTransport) Close() error             { return nil }

func (t *desTransport) deliver(ctx context.Context, msg *p2p.Message) (*p2p.Message, error) {
	target, ok := t.d.peers[msg.To]
	if !ok {
		return nil, fmt.Errorf("%w: %s (unknown peer)", p2p.ErrUnreachable, msg.To)
	}
	t.d.msgTotal++
	t.d.msgByKind[msg.Kind]++
	h := targetHandler(target)
	if h == nil {
		return nil, fmt.Errorf("%w: %s", p2p.ErrNoHandler, msg.To)
	}
	return h(ctx, msg)
}

// targetHandler returns the receiver-side handler including the chaos
// wrapper's crashed-receiver guard, by going through the inner transport
// the wrapper installed its guard on.
func targetHandler(p *Peer) p2p.Handler {
	inner, ok := p.tr.(*chaos.Transport)
	if !ok {
		return nil
	}
	dt, ok := inner.Inner().(*desTransport)
	if !ok {
		return nil
	}
	return dt.h
}

func (t *desTransport) Send(ctx context.Context, to p2p.PeerID, msg *p2p.Message) error {
	msg.From = t.id
	msg.To = to
	_, err := t.deliver(ctx, msg)
	return err
}

func (t *desTransport) Request(ctx context.Context, to p2p.PeerID, msg *p2p.Message) (*p2p.Message, error) {
	msg.From = t.id
	msg.To = to
	resp, err := t.deliver(ctx, msg)
	if err != nil {
		return nil, err
	}
	if resp == nil {
		resp = &p2p.Message{From: to, To: t.id, Kind: msg.Kind + "-ack"}
	}
	return resp, nil
}

// pruneLog is the scale-mode WAL: per-transaction record storage with an
// explicit Drop for settled transactions, so a million-transaction run
// holds only in-flight state. LSNs stay globally monotonic; Records()
// (used only by restart recovery) rebuilds first-LSN order over the
// surviving transactions.
type pruneLog struct {
	next  uint64
	byTxn map[string][]*wal.Record
	first map[string]uint64
}

var _ wal.Log = (*pruneLog)(nil)

func newPruneLog() *pruneLog {
	return &pruneLog{byTxn: make(map[string][]*wal.Record), first: make(map[string]uint64)}
}

func (l *pruneLog) Append(r *wal.Record) (uint64, error) {
	l.next++
	r.LSN = l.next
	if _, ok := l.first[r.Txn]; !ok {
		l.first[r.Txn] = r.LSN
	}
	l.byTxn[r.Txn] = append(l.byTxn[r.Txn], r)
	return r.LSN, nil
}

func (l *pruneLog) Records() []*wal.Record {
	txns := make([]string, 0, len(l.byTxn))
	for txn := range l.byTxn {
		txns = append(txns, txn)
	}
	sortStrings(txns)
	// Stable order: by first LSN, ties impossible (LSNs are unique).
	for i := 1; i < len(txns); i++ {
		for j := i; j > 0 && l.first[txns[j]] < l.first[txns[j-1]]; j-- {
			txns[j], txns[j-1] = txns[j-1], txns[j]
		}
	}
	var out []*wal.Record
	for _, txn := range txns {
		out = append(out, l.byTxn[txn]...)
	}
	return out
}

func (l *pruneLog) TxnRecords(txn string) []*wal.Record {
	return append([]*wal.Record(nil), l.byTxn[txn]...)
}

func (l *pruneLog) Sync() error  { return nil }
func (l *pruneLog) Close() error { return nil }

// Drop forgets one transaction's records.
func (l *pruneLog) Drop(txn string) {
	delete(l.byTxn, txn)
	delete(l.first, txn)
}
