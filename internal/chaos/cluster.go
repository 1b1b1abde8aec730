package chaos

import (
	"context"
	"fmt"

	"axmltx/internal/core"
	"axmltx/internal/membership"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Cluster wires peers over one simulated network with the injector in every
// transport path, and keeps the WAL handles so conformance checks can read
// each peer's log after the run.
type Cluster struct {
	Net   *p2p.Network
	Inj   *Injector
	Peers map[p2p.PeerID]*core.Peer
	Logs  map[p2p.PeerID]wal.Log
	// Sink, when set before Add, becomes every peer's TraceSink (unless the
	// peer's own Options already name one), so a run's trace interleaves
	// protocol spans with the injector's fault spans in one stream.
	Sink obs.Sink
	// Gossip, when set before Add, gives every subsequently added peer a
	// membership instance (over the same chaos-wrapped transport, so the
	// schedule's partitions and crashes drive the failure detector). Seeds
	// are ignored; call ConnectGossip once the topology is built.
	Gossip *membership.Config
	// Members holds the gossip instance of each peer added while Gossip was
	// set.
	Members map[p2p.PeerID]*membership.Gossip

	snaps map[string]*xmldom.Document
}

// NewCluster builds a cluster whose transports route through the injector.
func NewCluster(inj *Injector) *Cluster {
	return &Cluster{
		Net:     p2p.NewNetwork(0),
		Inj:     inj,
		Peers:   make(map[p2p.PeerID]*core.Peer),
		Logs:    make(map[p2p.PeerID]wal.Log),
		Members: make(map[p2p.PeerID]*membership.Gossip),
		snaps:   make(map[string]*xmldom.Document),
	}
}

// Add joins a peer with a fresh in-memory WAL behind a chaos-wrapped
// transport, with a restart hook running core.Peer.Restart — drop volatile
// transaction state, WAL-replay recovery. Add sets no fault policy: which
// peers a schedule may not crash is the caller's choice (Injector.Protect).
func (c *Cluster) Add(id p2p.PeerID, opts core.Options) *core.Peer {
	if opts.TraceSink == nil {
		opts.TraceSink = c.Sink
	}
	t := c.Inj.Wrap(c.Net.Join(id))
	if c.Gossip != nil && opts.Membership == nil {
		cfg := *c.Gossip
		cfg.Seeds = nil
		if cfg.Sink == nil {
			cfg.Sink = opts.TraceSink
		}
		g := membership.New(t, cfg)
		c.Members[id] = g
		opts.Membership = g
	}
	log := wal.NewMemory()
	p := core.NewPeer(t, log, opts)
	c.Peers[id] = p
	c.Logs[id] = log
	c.Inj.OnRestart(id, func() { _, _ = p.Restart() })
	return p
}

// ConnectGossip seeds every gossip instance with the full current member
// set — conformance runs start from a converged bootstrap and let the
// schedule churn it, rather than also testing discovery.
func (c *Cluster) ConnectGossip() {
	ids := make([]p2p.PeerID, 0, len(c.Members))
	for id := range c.Members {
		ids = append(ids, id)
	}
	sortPeers(ids)
	for _, g := range c.Members {
		g.Seed(ids...)
	}
}

// GossipRounds drives n deterministic protocol periods across every
// non-crashed peer, in sorted peer order. Crashed peers neither probe nor
// answer (the injector fails their traffic), which is exactly how the
// failure detector notices them.
func (c *Cluster) GossipRounds(ctx context.Context, n int) {
	ids := make([]p2p.PeerID, 0, len(c.Members))
	for id := range c.Members {
		ids = append(ids, id)
	}
	sortPeers(ids)
	for i := 0; i < n; i++ {
		for _, id := range ids {
			if c.Inj.Crashed(id) {
				continue
			}
			c.Members[id].Tick(ctx)
		}
	}
}

// HostEntry gives a peer a work document and an update service inserting
// one <entry/> per invocation.
func (c *Cluster) HostEntry(id p2p.PeerID, service, doc, root string) {
	p := c.Peers[id]
	if err := p.HostDocument(doc, fmt.Sprintf("<%s><log/></%s>", root, root)); err != nil {
		panic(err)
	}
	p.HostUpdateService(services.Descriptor{
		Name: service, ResultName: "updateResult", TargetDocument: doc,
	}, fmt.Sprintf(`<action type="insert"><data><entry svc=%q/></data><location>Select l from l in %s/log;</location></action>`, service, root))
}

// HostComposite gives a peer a composition document embedding the given
// (service, provider) calls — optionally with handler XML on the last call
// — and a query service named svc over it.
func (c *Cluster) HostComposite(id p2p.PeerID, svc, doc, root string, calls [][2]string, lastHandlerXML string) {
	var b []byte
	b = append(b, fmt.Sprintf("<%s>", root)...)
	for i, call := range calls {
		b = append(b, fmt.Sprintf(`<axml:sc mode="replace" methodName=%q serviceURL=%q>`, call[0], call[1])...)
		if i == len(calls)-1 && lastHandlerXML != "" {
			b = append(b, lastHandlerXML...)
		}
		b = append(b, `</axml:sc>`...)
	}
	b = append(b, fmt.Sprintf("</%s>", root)...)
	p := c.Peers[id]
	if err := p.HostDocument(doc, string(b)); err != nil {
		panic(err)
	}
	p.HostQueryService(services.Descriptor{
		Name: svc, ResultName: "updateResult", TargetDocument: doc,
	}, fmt.Sprintf("Select d/updateResult from d in %s", root))
}

// Snapshot records one document's current state as the baseline the
// global-abort invariant compares against.
func (c *Cluster) Snapshot(id p2p.PeerID, doc string) {
	if snap, ok := c.Peers[id].Store().Snapshot(doc); ok {
		c.snaps[string(id)+"/"+doc] = snap
	}
}

// SnapshotAll records every hosted document's current state.
func (c *Cluster) SnapshotAll() {
	for id, p := range c.Peers {
		for _, name := range p.Store().Names() {
			c.Snapshot(id, name)
		}
	}
}

// RestoredViolations returns one message per snapshotted document whose
// live state differs from its snapshot, in sorted peer order — empty when a
// global abort restored everything. Naming peers limits the check to them.
func (c *Cluster) RestoredViolations(only ...p2p.PeerID) []string {
	if len(only) == 0 {
		only = c.peerIDs()
	}
	var out []string
	for _, id := range only {
		for _, name := range c.Peers[id].Store().Names() {
			snap, ok := c.snaps[string(id)+"/"+name]
			if !ok {
				continue
			}
			if live, ok := c.Peers[id].Store().Snapshot(name); !ok || !live.Equal(snap) {
				out = append(out, RestoredViolation(id, name))
			}
		}
	}
	return out
}

// RestoredViolation is the message for a document an abort did not restore.
func RestoredViolation(id p2p.PeerID, doc string) string {
	return fmt.Sprintf("%s/%s: document not restored after abort", id, doc)
}

// TotalMetrics sums the metric snapshots of every peer.
func (c *Cluster) TotalMetrics() core.MetricsSnapshot {
	var total core.MetricsSnapshot
	for _, p := range c.Peers {
		total.Add(p.Metrics().Snapshot())
	}
	return total
}

// CountEntries counts <entry/> elements in a peer's document (the unit of
// work the standard update services insert).
func (c *Cluster) CountEntries(id p2p.PeerID, doc string) int {
	d, ok := c.Peers[id].Store().Snapshot(doc)
	if !ok || d.Root() == nil {
		return 0
	}
	n := 0
	d.Root().Walk(func(x *xmldom.Node) bool {
		if x.Name() == "entry" {
			n++
		}
		return true
	})
	return n
}
