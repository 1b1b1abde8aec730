// Package p2p provides the peer-to-peer infrastructure beneath the AXML
// transactional framework: peer identities, a message transport abstraction
// with an in-memory simulated network (deterministic failure injection) and
// a real TCP implementation, and a ping/keep-alive failure detector.
//
// The recovery protocols never talk to sockets directly; they see only
// Transport, so the same protocol code runs in simulation (benchmarks,
// tests) and over TCP (cmd/axmlpeer).
package p2p

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"axmltx/internal/vclock"
)

// PeerID identifies an AXML peer (the paper's AP1, AP2, ...).
type PeerID string

// Message kinds used by the transactional framework. The transport treats
// kinds opaquely; they are listed here so metrics can aggregate by kind.
const (
	KindInvoke      = "invoke"       // service invocation request
	KindResult      = "result"       // invocation result
	KindAbort       = "abort"        // "Abort TA" (nested recovery, §3.2)
	KindCommit      = "commit"       // commit notification
	KindCompensate  = "compensate"   // peer-independent compensation request
	KindCompDef     = "compdef"      // compensating-service definition sent to the origin
	KindPing        = "ping"         // keep-alive probe
	KindPong        = "pong"         // keep-alive reply
	KindDisconnect  = "disconnect"   // disconnection notice (chaining, §3.3)
	KindRedirect    = "redirect"     // result re-routed past a dead parent (§3.3 case b)
	KindStream      = "stream"       // continuous-service data (§3.3 case d)
	KindChainUpdate = "chain"        // active-peer-list propagation to ancestors (§3.3)
	KindAdmin       = "admin"        // document/service administration
	KindGossip      = "gossip"       // SWIM membership sync / indirect probe; sync payloads piggyback the replica catalog and per-peer metric summaries (internal/membership)
	KindCacheFetch  = "cache-fetch"  // cached materialization result fetch from an advertising peer
	KindFragFetch   = "frag-fetch"   // document-fragment fetch from a catalog-advertised holder
	KindFragMigrate = "frag-migrate" // heat-driven fragment handoff to its dominant caller
)

// Message is the unit of communication. Payload encoding is the caller's
// concern: internal/core and internal/membership each put one versioned
// binary format (internal/codec) in it, with XML fragments as strings inside.
type Message struct {
	From    PeerID
	To      PeerID
	Kind    string
	Txn     string // transaction ID the message belongs to, "" for none
	Subject string // kind-specific discriminator (service name, fault name…)
	Payload []byte
	Err     string // error carried by a response
	// Code is the typed error-taxonomy code matching Err (core.ErrCode), so
	// receivers reconstruct errors.Is-compatible errors instead of matching
	// strings.
	Code string
	// Span is the sender's active span ID; the receiver parents its own
	// spans under it, stitching one trace tree across peers. When the
	// sender samples traces adaptively, the ID carries a trailing "~"
	// drop-eligibility marker (obs.EncodeWireSpan/DecodeWireSpan) so every
	// peer of a transaction agrees on the keep/drop decision.
	Span string
}

// Handler processes an incoming message and returns a response for requests
// (nil response is valid for one-way messages).
type Handler func(ctx context.Context, msg *Message) (*Message, error)

// Transport moves messages between peers.
type Transport interface {
	// Self returns the local peer ID.
	Self() PeerID
	// Send delivers msg to `to` without waiting for a response.
	Send(ctx context.Context, to PeerID, msg *Message) error
	// Request delivers msg and waits for the handler's response.
	Request(ctx context.Context, to PeerID, msg *Message) (*Message, error)
	// SetHandler installs the callback for incoming messages. It must be
	// called before the first message arrives.
	SetHandler(h Handler)
	// Close detaches the transport from the network.
	Close() error
}

// Errors surfaced by transports. ErrUnreachable is how peers *detect*
// disconnection when actively sending (§3.3 scenario b: AP6 notices AP3 is
// gone when returning results); passive detection uses the Pinger.
var (
	ErrUnreachable = errors.New("p2p: peer unreachable")
	ErrNoHandler   = errors.New("p2p: peer has no handler installed")
	ErrClosed      = errors.New("p2p: transport closed")
)

// Stats aggregates message counts on the simulated network; experiments use
// it to report protocol message costs.
type Stats struct {
	Total  int64
	ByKind map[string]int64
}

// Network is an in-memory network of peers for simulation and tests. It
// supports per-message latency, peer disconnection and link blocking; all
// failure injection is deterministic (no randomness inside the transport —
// workloads decide what fails and when).
type Network struct {
	mu      sync.Mutex
	peers   map[PeerID]*memTransport
	down    map[PeerID]bool
	blocked map[[2]PeerID]bool
	latency time.Duration
	clock   vclock.Clock

	total  atomic.Int64
	kindMu sync.Mutex
	byKind map[string]int64
}

// NewNetwork returns an empty network with the given per-delivery latency
// (0 for fastest simulation).
func NewNetwork(latency time.Duration) *Network {
	return &Network{
		peers:   make(map[PeerID]*memTransport),
		down:    make(map[PeerID]bool),
		blocked: make(map[[2]PeerID]bool),
		latency: latency,
		clock:   vclock.Real,
		byKind:  make(map[string]int64),
	}
}

// SetClock swaps the clock the per-delivery latency wait runs on. The
// discrete-event harness installs its virtual clock here so latency is
// accounted without wall-clock sleeping. Call before traffic starts.
func (n *Network) SetClock(c vclock.Clock) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = vclock.Or(c)
}

// Join registers a peer and returns its transport. Joining an existing ID
// replaces the previous transport (a peer rejoining after disconnection).
func (n *Network) Join(id PeerID) Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := &memTransport{net: n, id: id}
	n.peers[id] = t
	delete(n.down, id)
	return t
}

// Disconnect makes a peer unreachable: every send to or from it fails with
// ErrUnreachable, modeling the peer leaving the system (§3.3).
func (n *Network) Disconnect(id PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = true
}

// Reconnect reverses Disconnect.
func (n *Network) Reconnect(id PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.down, id)
}

// Down reports whether the peer is currently disconnected.
func (n *Network) Down(id PeerID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[id]
}

// BlockLink makes messages between a and b (both directions) fail,
// modeling a network partition between two peers.
func (n *Network) BlockLink(a, b PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey(a, b)] = true
}

// UnblockLink reverses BlockLink.
func (n *Network) UnblockLink(a, b PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey(a, b))
}

func linkKey(a, b PeerID) [2]PeerID {
	if a > b {
		a, b = b, a
	}
	return [2]PeerID{a, b}
}

// Stats returns a snapshot of message counters.
func (n *Network) Stats() Stats {
	n.kindMu.Lock()
	defer n.kindMu.Unlock()
	byKind := make(map[string]int64, len(n.byKind))
	for k, v := range n.byKind {
		byKind[k] = v
	}
	return Stats{Total: n.total.Load(), ByKind: byKind}
}

// ResetStats zeroes the counters (between experiment repetitions).
func (n *Network) ResetStats() {
	n.kindMu.Lock()
	defer n.kindMu.Unlock()
	n.total.Store(0)
	n.byKind = make(map[string]int64)
}

func (n *Network) count(kind string) {
	n.total.Add(1)
	n.kindMu.Lock()
	n.byKind[kind]++
	n.kindMu.Unlock()
}

// deliver routes a message, enforcing failure state, and invokes the target
// handler synchronously. Synchronous delivery keeps simulations
// deterministic; re-entrant request chains (A→B→A) are plain nested calls.
func (n *Network) deliver(ctx context.Context, msg *Message) (*Message, error) {
	n.mu.Lock()
	if n.down[msg.From] || n.down[msg.To] || n.blocked[linkKey(msg.From, msg.To)] {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, msg.From, msg.To)
	}
	target, ok := n.peers[msg.To]
	clock := n.clock
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (unknown peer)", ErrUnreachable, msg.To)
	}
	n.count(msg.Kind)
	if n.latency > 0 {
		if err := clock.Sleep(ctx, n.latency); err != nil {
			return nil, err
		}
	}
	h := target.handler()
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoHandler, msg.To)
	}
	return h(ctx, msg)
}

type memTransport struct {
	net    *Network
	id     PeerID
	mu     sync.Mutex
	h      Handler
	closed bool
}

func (t *memTransport) Self() PeerID { return t.id }

func (t *memTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.h = h
}

func (t *memTransport) handler() Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	return t.h
}

func (t *memTransport) Send(ctx context.Context, to PeerID, msg *Message) error {
	if t.isClosed() {
		return ErrClosed
	}
	msg.From = t.id
	msg.To = to
	_, err := t.net.deliver(ctx, msg)
	return err
}

func (t *memTransport) Request(ctx context.Context, to PeerID, msg *Message) (*Message, error) {
	if t.isClosed() {
		return nil, ErrClosed
	}
	msg.From = t.id
	msg.To = to
	resp, err := t.net.deliver(ctx, msg)
	if err != nil {
		return nil, err
	}
	if resp == nil {
		resp = &Message{From: to, To: t.id, Kind: msg.Kind + "-ack"}
	}
	// The response travels back over the same (possibly failing) network:
	// if either end died during processing, the requester must not see the
	// result (it observes ErrUnreachable instead, like a broken socket).
	t.net.mu.Lock()
	dead := t.net.down[t.id] || t.net.down[to] || t.net.blocked[linkKey(t.id, to)]
	t.net.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("%w: %s -> %s (response lost)", ErrUnreachable, to, t.id)
	}
	return resp, nil
}

func (t *memTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *memTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return nil
}
