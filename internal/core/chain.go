// Package core implements the paper's transactional framework for AXML
// systems: transaction contexts and their manager, dynamic compensation
// constructed from the operation log (§3.1), the nested and peer-independent
// recovery protocols (§3.2), and chaining-based handling of peer
// disconnection (§3.3).
package core

import (
	"strings"
	"sync"

	"axmltx/internal/p2p"
)

// Chain is the "list of active peers" of §3.3: the invocation tree of a
// transaction, passed along with every invocation so that any participant
// can locate the parents, children, siblings and super peers of any other
// participant when a disconnection is detected.
//
// The paper's notation [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]] is an
// invocation tree; Chain stores it as a flat node list with parent indexes,
// which encodes compactly for propagation (appendChain).
type Chain struct {
	Nodes []ChainNode
}

// ChainNode is one participant in the invocation tree.
type ChainNode struct {
	Peer    p2p.PeerID
	Super   bool   // trusted peer that does not disconnect (starred)
	Service string // service invoked at this peer ("" for the origin)
	Parent  int    // index of the invoking node, -1 for the origin
}

// NewChain starts a chain at the origin peer.
func NewChain(origin p2p.PeerID, super bool) *Chain {
	return &Chain{Nodes: []ChainNode{{Peer: origin, Super: super, Parent: -1}}}
}

// Clone returns an independent copy; chains are value-propagated between
// peers, never shared.
func (c *Chain) Clone() *Chain {
	return &Chain{Nodes: append([]ChainNode(nil), c.Nodes...)}
}

// indexOf returns the first node index for peer, or -1. A peer appears once
// per transaction in the paper's scenarios; re-invocation of the same peer
// keeps the first position.
func (c *Chain) indexOf(peer p2p.PeerID) int {
	for i, n := range c.Nodes {
		if n.Peer == peer {
			return i
		}
	}
	return -1
}

// Contains reports whether peer participates in the chain.
func (c *Chain) Contains(peer p2p.PeerID) bool { return c.indexOf(peer) >= 0 }

// Add records that parent invoked service on child, returning the updated
// chain (the receiver is not modified). Unknown parents are ignored and the
// chain returned unchanged — a defensive behaviour for redirected messages.
func (c *Chain) Add(parent, child p2p.PeerID, service string, super bool) *Chain {
	pi := c.indexOf(parent)
	if pi < 0 || c.Contains(child) {
		return c.Clone()
	}
	out := c.Clone()
	out.Nodes = append(out.Nodes, ChainNode{Peer: child, Super: super, Service: service, Parent: pi})
	return out
}

// ParentOf returns the peer that invoked `peer`, or "" for the origin or an
// unknown peer.
func (c *Chain) ParentOf(peer p2p.PeerID) p2p.PeerID {
	i := c.indexOf(peer)
	if i < 0 || c.Nodes[i].Parent < 0 {
		return ""
	}
	return c.Nodes[c.Nodes[i].Parent].Peer
}

// ChildrenOf returns the peers whose services `peer` invoked, in invocation
// order.
func (c *Chain) ChildrenOf(peer p2p.PeerID) []p2p.PeerID {
	i := c.indexOf(peer)
	if i < 0 {
		return nil
	}
	var out []p2p.PeerID
	for _, n := range c.Nodes {
		if n.Parent == i {
			out = append(out, n.Peer)
		}
	}
	return out
}

// SiblingsOf returns the other children of peer's parent.
func (c *Chain) SiblingsOf(peer p2p.PeerID) []p2p.PeerID {
	i := c.indexOf(peer)
	if i < 0 || c.Nodes[i].Parent < 0 {
		return nil
	}
	var out []p2p.PeerID
	for j, n := range c.Nodes {
		if n.Parent == c.Nodes[i].Parent && j != i {
			out = append(out, n.Peer)
		}
	}
	return out
}

// DescendantsOf returns every peer beneath `peer` in the invocation tree.
func (c *Chain) DescendantsOf(peer p2p.PeerID) []p2p.PeerID {
	i := c.indexOf(peer)
	if i < 0 {
		return nil
	}
	var out []p2p.PeerID
	var rec func(idx int)
	rec = func(idx int) {
		for j, n := range c.Nodes {
			if n.Parent == idx {
				out = append(out, n.Peer)
				rec(j)
			}
		}
	}
	rec(i)
	return out
}

// AncestorsOf returns peer's ancestors, closest first (parent, grandparent,
// …, origin).
func (c *Chain) AncestorsOf(peer p2p.PeerID) []p2p.PeerID {
	i := c.indexOf(peer)
	if i < 0 {
		return nil
	}
	var out []p2p.PeerID
	for p := c.Nodes[i].Parent; p >= 0; p = c.Nodes[p].Parent {
		out = append(out, c.Nodes[p].Peer)
	}
	return out
}

// Origin returns the chain's root peer.
func (c *Chain) Origin() p2p.PeerID {
	for _, n := range c.Nodes {
		if n.Parent < 0 {
			return n.Peer
		}
	}
	return ""
}

// ServiceAt returns the service invoked at peer ("" for the origin).
func (c *Chain) ServiceAt(peer p2p.PeerID) string {
	i := c.indexOf(peer)
	if i < 0 {
		return ""
	}
	return c.Nodes[i].Service
}

// IsSuper reports whether peer is marked as a super peer in the chain.
func (c *Chain) IsSuper(peer p2p.PeerID) bool {
	i := c.indexOf(peer)
	return i >= 0 && c.Nodes[i].Super
}

// Peers returns all participants in insertion order.
func (c *Chain) Peers() []p2p.PeerID {
	out := make([]p2p.PeerID, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Peer
	}
	return out
}

// ClosestLiveAncestor returns peer's nearest ancestor for which alive
// returns true — "AP6 can try the next closest peer (AP1)" (§3.3 case b).
func (c *Chain) ClosestLiveAncestor(peer p2p.PeerID, alive func(p2p.PeerID) bool) (p2p.PeerID, bool) {
	for _, a := range c.AncestorsOf(peer) {
		if alive(a) {
			return a, true
		}
	}
	return "", false
}

// ClosestSuperAncestor returns peer's nearest super-peer ancestor — "or the
// closest super peer in the list".
func (c *Chain) ClosestSuperAncestor(peer p2p.PeerID) (p2p.PeerID, bool) {
	i := c.indexOf(peer)
	if i < 0 {
		return "", false
	}
	for p := c.Nodes[i].Parent; p >= 0; p = c.Nodes[p].Parent {
		if c.Nodes[p].Super {
			return c.Nodes[p].Peer, true
		}
	}
	return "", false
}

// Merge folds other's nodes into a copy of c: peers unknown to c are added
// under their parent (resolved by peer ID). Chains only ever grow by Add,
// so merging the upward-propagated copies held by different participants
// converges on the full invocation tree.
func (c *Chain) Merge(other *Chain) *Chain {
	out := c.Clone()
	if other == nil {
		return out
	}
	// Iterate until no progress: a node's parent may itself be new.
	for changed := true; changed; {
		changed = false
		for _, n := range other.Nodes {
			if out.Contains(n.Peer) {
				if n.Super {
					out.markSuper(n.Peer, true)
				}
				continue
			}
			if n.Parent < 0 {
				continue // a second root cannot happen within one txn
			}
			parentPeer := other.Nodes[n.Parent].Peer
			pi := out.indexOf(parentPeer)
			if pi < 0 {
				continue // parent not merged yet; retry next pass
			}
			out.Nodes = append(out.Nodes, ChainNode{
				Peer: n.Peer, Super: n.Super, Service: n.Service, Parent: pi,
			})
			changed = true
		}
	}
	return out
}

// markSuper sets the super flag on peer's node; the callee fixes its own
// flag when it receives a chain, since only it knows its trust status.
func (c *Chain) markSuper(peer p2p.PeerID, super bool) {
	if i := c.indexOf(peer); i >= 0 {
		c.Nodes[i].Super = super
	}
}

// SphereOfAtomicity reports whether atomicity can be guaranteed despite
// disconnection: true iff every participant is a super peer (§3.3, after
// Alonso & Hagen's Spheres of Atomicity).
func (c *Chain) SphereOfAtomicity() bool {
	for _, n := range c.Nodes {
		if !n.Super {
			return false
		}
	}
	return true
}

// String renders the paper's bracket notation, e.g.
// [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]].
func (c *Chain) String() string {
	if len(c.Nodes) == 0 {
		return "[]"
	}
	rootIdx := 0
	for i, n := range c.Nodes {
		if n.Parent < 0 {
			rootIdx = i
			break
		}
	}
	var render func(idx int) string
	render = func(idx int) string {
		n := c.Nodes[idx]
		label := string(n.Peer)
		if n.Super {
			label += "*"
		}
		var kids []int
		for j, m := range c.Nodes {
			if m.Parent == idx {
				kids = append(kids, j)
			}
		}
		switch len(kids) {
		case 0:
			return label
		case 1:
			return label + " → " + render(kids[0])
		default:
			parts := make([]string, len(kids))
			for i, k := range kids {
				parts[i] = "[" + render(k) + "]"
			}
			return label + " → " + strings.Join(parts, " || ")
		}
	}
	return "[" + render(rootIdx) + "]"
}

// chainLock guards concurrent chain updates inside a context.
type chainLock struct {
	mu    sync.Mutex
	chain *Chain
}

func (cl *chainLock) get() *Chain {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.chain
}

func (cl *chainLock) set(c *Chain) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.chain = c
}

// update applies f to the chain atomically and returns the new chain.
func (cl *chainLock) update(f func(*Chain) *Chain) *Chain {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.chain = f(cl.chain)
	return cl.chain
}
