package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"axmltx/internal/obs"
	"axmltx/internal/p2p"
)

// Status is a transaction context's lifecycle state.
type Status uint8

const (
	// StatusActive means the context is executing operations.
	StatusActive Status = iota + 1
	// StatusCommitted means local effects are permanent.
	StatusCommitted
	// StatusAborted means local effects were compensated.
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Invocation records one completed remote (or local) service invocation
// made while processing this context — the peers that must be told to abort
// or commit, and the compensating-service definitions they returned.
type Invocation struct {
	Peer    p2p.PeerID
	Service string
	// Comp is the compensating-service definition the participant returned
	// with its results (peer-independent recovery, §3.2); nil when running
	// peer-dependent.
	Comp *CompensationDef
}

// Context is the per-peer transaction context TC_A_i: "a data structure
// which encapsulates the transaction id with all the information required
// for concurrency control, commit and recovery" (§3.2).
type Context struct {
	// ID is the global transaction ID (assigned by the origin peer).
	ID string
	// Origin is the peer the transaction was submitted at.
	Origin p2p.PeerID
	// Self is the peer owning this context.
	Self p2p.PeerID
	// Parent is the peer that invoked the service this context serves; ""
	// at the origin.
	Parent p2p.PeerID
	// Service is the service this context is processing ("" at origin).
	Service string

	mu       sync.Mutex
	status   Status
	children []Invocation
	chain    chainLock
	// undoNodes accumulates the affected-node count of compensation, the
	// cost measure reported by experiments.
	undoNodes int
	// reused holds result fragments salvaged from a disconnected peer's
	// children, consumed instead of re-invoking their services (§3.3).
	reused map[string][]string
	// compDefs holds compensating-service definitions sent directly to the
	// origin by (transitive) participants, one per peer (a definition
	// covers every effect of the transaction at that peer).
	compDefs map[p2p.PeerID]*CompensationDef
	// rootSpan is the transaction's root span at the origin peer (nil on
	// participants or when tracing is off); ended by Commit/abort.
	rootSpan *obs.ActiveSpan
	// spanID is the span the next operation under this context should
	// parent on: the root/serve span between operations, the exec/call span
	// while one is running.
	spanID string
	// callCtx is the public-API context of the operation currently running
	// under this transaction, inherited by nested materializer invocations.
	callCtx context.Context
	// compensated records that abort processing ran compensations, so later
	// errors surface ErrCompensated rather than plain ErrAborted.
	compensated bool
	// began is when the origin context was created (zero on participants),
	// the basis of the slow-transaction hook.
	began time.Time
}

// SpanID returns the current tracing parent for operations under this
// context ("" when tracing is off).
func (c *Context) SpanID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spanID
}

// swapSpanID installs id as the tracing parent and returns the previous one.
func (c *Context) swapSpanID(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.spanID
	c.spanID = id
	return prev
}

// swapCallCtx installs the public-API context for the operation now running
// and returns the previous one.
func (c *Context) swapCallCtx(ctx context.Context) context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.callCtx
	c.callCtx = ctx
	return prev
}

// ctxForCalls returns the context nested invocations should run under.
func (c *Context) ctxForCalls() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.callCtx != nil {
		return c.callCtx
	}
	return context.Background()
}

func (c *Context) wasCompensated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compensated
}

// AddCompDef records a participant's compensating-service definition,
// superseding an earlier one from the same peer (later definitions cover
// more effects).
func (c *Context) AddCompDef(def *CompensationDef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.compDefs == nil {
		c.compDefs = make(map[p2p.PeerID]*CompensationDef)
	}
	c.compDefs[def.Peer] = def
}

// CompDefs returns the stored definitions.
func (c *Context) CompDefs() []*CompensationDef {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*CompensationDef, 0, len(c.compDefs))
	for _, d := range c.compDefs {
		out = append(out, d)
	}
	return out
}

// storeReused merges salvaged results into the context.
func (c *Context) storeReused(m map[string][]string) {
	if len(m) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reused == nil {
		c.reused = make(map[string][]string)
	}
	for k, v := range m {
		c.reused[k] = v
	}
}

// takeReused consumes salvaged results for a service, if any.
func (c *Context) takeReused(service string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frags, ok := c.reused[service]
	if ok {
		delete(c.reused, service)
	}
	return frags, ok
}

// reusedSnapshot copies the salvage map (for re-invocation requests).
func (c *Context) reusedSnapshot() map[string][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reused) == 0 {
		return nil
	}
	out := make(map[string][]string, len(c.reused))
	for k, v := range c.reused {
		out[k] = v
	}
	return out
}

// Status returns the context's current state.
func (c *Context) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// transition moves Active→to and reports whether this call made the
// transition (false if already in a terminal state).
func (c *Context) transition(to Status) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status != StatusActive {
		return false
	}
	c.status = to
	return true
}

// AddChild records a completed invocation.
func (c *Context) AddChild(inv Invocation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.children = append(c.children, inv)
}

// Children returns a snapshot of the completed invocations.
func (c *Context) Children() []Invocation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Invocation(nil), c.children...)
}

// Chain returns the context's current active-peer list.
func (c *Context) Chain() *Chain { return c.chain.get() }

// SetChain replaces the context's active-peer list.
func (c *Context) SetChain(ch *Chain) { c.chain.set(ch) }

// ExtendChain atomically records that parent invoked service on child and
// returns the updated chain. Unlike Chain()+SetChain(), concurrent
// extensions (parallel materialization of one round's calls) cannot lose
// updates, and sibling order is the order of ExtendChain calls.
func (c *Context) ExtendChain(parent, child p2p.PeerID, service string, super bool) *Chain {
	return c.chain.update(func(ch *Chain) *Chain { return ch.Add(parent, child, service, super) })
}

// MergeChain atomically folds other into the context's chain and returns
// the result.
func (c *Context) MergeChain(other *Chain) *Chain {
	return c.chain.update(func(ch *Chain) *Chain { return ch.Merge(other) })
}

// AddUndoNodes records that compensation ran under this context, undoing n
// nodes, and accumulates the cost.
func (c *Context) AddUndoNodes(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compensated = true
	c.undoNodes += n
}

// UndoNodes returns the accumulated compensation cost.
func (c *Context) UndoNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.undoNodes
}

// Manager tracks the transaction contexts of one peer.
type Manager struct {
	self p2p.PeerID
	mu   sync.Mutex
	ctxs map[string]*Context
	seq  atomic.Uint64
	// inc is the peer's incarnation: 0 in memory, else the count of Opens
	// of its directory. Open sets it before the peer mints an ID.
	inc uint64
}

// NewManager returns a manager for the given peer.
func NewManager(self p2p.PeerID) *Manager {
	return &Manager{self: self, ctxs: make(map[string]*Context)}
}

// NewTxnID mints a globally unique transaction ID at the origin:
// "T<seq>@<peer>" in memory, "T<seq>.<inc>@<peer>" for a peer opened on a
// directory, whose sequence starts again at every Open.
func (m *Manager) NewTxnID() string {
	if m.inc == 0 {
		return fmt.Sprintf("T%d@%s", m.seq.Add(1), m.self)
	}
	return fmt.Sprintf("T%d.%d@%s", m.seq.Add(1), m.inc, m.self)
}

// Begin creates the origin context for a new transaction.
func (m *Manager) Begin(id string, super bool) *Context {
	ctx := &Context{ID: id, Origin: m.self, Self: m.self, status: StatusActive, began: time.Now()}
	ctx.SetChain(NewChain(m.self, super))
	m.mu.Lock()
	m.ctxs[id] = ctx
	m.mu.Unlock()
	return ctx
}

// BeginParticipant creates (or returns the existing) participant context
// for an incoming invocation. A peer invoked twice within one transaction
// reuses its context, accumulating children across invocations.
func (m *Manager) BeginParticipant(id string, origin, parent p2p.PeerID, service string, chain *Chain) *Context {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx, ok := m.ctxs[id]; ok {
		if chain != nil {
			ctx.SetChain(chain)
		}
		// A peer re-invoked after a local abort (forward recovery redoing
		// part of the tree) starts a fresh epoch: the aborted epoch's
		// children were already notified and its effects compensated.
		ctx.mu.Lock()
		if ctx.status == StatusAborted {
			ctx.status = StatusActive
			ctx.children = nil
		}
		ctx.mu.Unlock()
		return ctx
	}
	ctx := &Context{
		ID: id, Origin: origin, Self: m.self, Parent: parent,
		Service: service, status: StatusActive,
	}
	if chain != nil {
		ctx.SetChain(chain)
	} else {
		ctx.SetChain(NewChain(origin, false))
	}
	m.ctxs[id] = ctx
	return ctx
}

// Get returns the context for a transaction, if present.
func (m *Manager) Get(id string) (*Context, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ctx, ok := m.ctxs[id]
	return ctx, ok
}

// Remove drops a finished context.
func (m *Manager) Remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.ctxs, id)
}

// Active returns the IDs of contexts still in StatusActive.
func (m *Manager) Active() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for id, ctx := range m.ctxs {
		if ctx.Status() == StatusActive {
			out = append(out, id)
		}
	}
	return out
}
