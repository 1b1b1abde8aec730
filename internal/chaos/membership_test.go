package chaos

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/membership"
	"axmltx/internal/p2p"
)

// quickGossip is the membership config the chaos tests drive by hand: short
// probe timeout (the memory network answers in microseconds), small fanout.
func quickGossip(suspectRounds int) *membership.Config {
	return &membership.Config{
		ProbeInterval:  5 * time.Millisecond,
		SuspectRounds:  suspectRounds,
		IndirectProbes: 2,
		Fanout:         2,
	}
}

// TestFalseSuspicionHealsWithoutCompensation partitions one peer away from
// the cluster just long enough to be suspected — not declared dead — then
// heals the link. The suspicion must dissolve through refutation: no OnDown,
// no catalog pruning, and a transaction that then invokes the once-suspected
// peer commits with its work intact (nothing was compensated).
func TestFalseSuspicionHealsWithoutCompensation(t *testing.T) {
	inj := NewInjector(1, nil, nil)
	c := NewCluster(inj)
	// SuspectRounds is set far beyond the blackout so suspicion can never
	// escalate to dead — the scenario under test is a *false* positive.
	c.Gossip = quickGossip(50)
	for _, id := range []p2p.PeerID{"AP1", "AP2", "AP3"} {
		c.Add(id, core.Options{Super: id == "AP1"})
	}
	c.HostEntry("AP2", "S2w", "D2.xml", "D2")
	c.HostEntry("AP3", "S3w", "D3.xml", "D3")

	var downs atomic.Int64
	for _, g := range c.Members {
		g.OnDown(func(p2p.PeerID) { downs.Add(1) })
	}

	ctx := context.Background()
	c.ConnectGossip()
	ap1 := c.Peers["AP1"]
	for i := 0; i < 100 && !hasProvider(ap1.Replicas(), "S3w", "AP3"); i++ {
		c.GossipRounds(ctx, 1)
	}
	if !hasProvider(ap1.Replicas(), "S3w", "AP3") {
		t.Fatal("catalog never converged: AP1 does not list AP3 as S3w provider")
	}

	// Blackout: AP3 unreachable from everyone. Probes and ping-reqs fail, so
	// AP1/AP2 must move AP3 to suspect.
	inj.PartitionLink("AP3", "AP1")
	inj.PartitionLink("AP3", "AP2")
	c.GossipRounds(ctx, 12)
	if st, ok := c.Members["AP1"].StateOf("AP3"); !ok || st != membership.StateSuspect {
		t.Fatalf("after blackout AP1 sees AP3 as %v (known=%v), want suspect", st, ok)
	}
	if !hasProvider(ap1.Replicas(), "S3w", "AP3") {
		t.Fatal("suspicion pruned the catalog: suspect peers must stay listed")
	}

	// Heal. AP3 learns it is suspected, refutes with a higher incarnation,
	// and everyone returns to alive.
	inj.HealLink("AP3", "AP1")
	inj.HealLink("AP3", "AP2")
	healed := func() bool {
		for _, id := range []p2p.PeerID{"AP1", "AP2"} {
			if st, ok := c.Members[id].StateOf("AP3"); !ok || st != membership.StateAlive {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200 && !healed(); i++ {
		c.GossipRounds(ctx, 1)
	}
	if !healed() {
		t.Fatal("false suspicion never healed back to alive")
	}
	if inc := c.Members["AP3"].Info().Incarnation; inc == 0 {
		t.Fatal("AP3 healed without refuting: incarnation still 0")
	}
	if n := downs.Load(); n != 0 {
		t.Fatalf("OnDown fired %d time(s) for a false suspicion, want 0", n)
	}

	// The healed peer serves a transaction normally: commit, work kept.
	txc := ap1.Begin()
	if _, err := ap1.Call(ctx, txc, "AP3", "S3w", nil); err != nil {
		t.Fatalf("invoking the healed peer: %v", err)
	}
	if err := ap1.Commit(ctx, txc); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	if n := c.CountEntries("AP3", "D3.xml"); n != 1 {
		t.Fatalf("AP3 holds %d entr(ies) after commit, want 1 (work compensated away?)", n)
	}
}

// TestGossipCatalogConvergesUnderChurn runs N peers under seeded gossip-layer
// chaos — probabilistic drops of gossip and ping traffic plus one partitioned
// link — then heals and requires every peer to converge to the identical
// member view and replica catalog, with every placement restored even for
// peers that were falsely declared dead mid-churn.
func TestGossipCatalogConvergesUnderChurn(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const n = 6
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rules := []Rule{
				{Fault: FaultDrop, Kind: p2p.KindGossip, P: 0.4},
				{Fault: FaultDrop, Kind: p2p.KindPing, P: 0.4},
			}
			inj := NewInjector(seed, rules, nil)
			c := NewCluster(inj)
			c.Gossip = quickGossip(2)
			ids := make([]p2p.PeerID, n)
			for i := range ids {
				ids[i] = p2p.PeerID(fmt.Sprintf("N%d", i+1))
				c.Add(ids[i], core.Options{})
				c.HostEntry(ids[i], fmt.Sprintf("S%d", i+1), fmt.Sprintf("D%d.xml", i+1), fmt.Sprintf("R%d", i+1))
			}
			c.ConnectGossip()
			ctx := context.Background()
			a, b := ids[int(seed)%n], ids[(int(seed)+3)%n]
			inj.PartitionLink(a, b)

			c.GossipRounds(ctx, 40) // churn: drops + the dead link
			inj.Heal()
			converged := func() bool { return gossipConverged(c, ids) == "" }
			for i := 0; i < 400 && !converged(); i++ {
				c.GossipRounds(ctx, 1)
			}
			if why := gossipConverged(c, ids); why != "" {
				t.Fatalf("cluster never reconverged after heal: %s", why)
			}
		})
	}
}

// gossipConverged reports why the cluster has not converged ("" when it has):
// every peer sees every other alive, all catalogs are identical, and every
// table lists every peer's service placement.
func gossipConverged(c *Cluster, ids []p2p.PeerID) string {
	var want string
	for i, id := range ids {
		g := c.Members[id]
		for _, other := range ids {
			if other == id {
				continue
			}
			if st, ok := g.StateOf(other); !ok || st != membership.StateAlive {
				return fmt.Sprintf("%s sees %s as %v (known=%v)", id, other, st, ok)
			}
		}
		key := catalogKey(g)
		if i == 0 {
			want = key
		} else if key != want {
			return fmt.Sprintf("%s catalog diverges:\n  %s\nvs %s:\n  %s", id, key, ids[0], want)
		}
		for j, other := range ids {
			svc := fmt.Sprintf("S%d", j+1)
			if !hasProvider(c.Peers[id].Replicas(), svc, other) {
				return fmt.Sprintf("%s table misses %s@%s", id, svc, other)
			}
		}
	}
	return ""
}

// catalogKey canonicalizes a catalog snapshot, ignoring announce timestamps
// (a wire round trip strips the monotonic clock, so times are not comparable).
func catalogKey(g *membership.Gossip) string {
	var b strings.Builder
	for _, e := range g.CatalogSnapshot() {
		fmt.Fprintf(&b, "%s v%d docs=%v svcs=%v; ", e.Origin, e.Version, e.Docs, e.Services)
	}
	return b.String()
}
