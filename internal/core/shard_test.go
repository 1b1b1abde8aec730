package core

import (
	"errors"
	"strings"
	"testing"

	"axmltx/internal/membership"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// shardTestDoc has three fragment-sized player subtrees plus a small meta
// child that stays in the spine.
const shardTestDoc = `<league>
  <player><name>Federer</name><ranking>1</ranking><points>8000</points></player>
  <player><name>Djokovic</name><ranking>2</ranking><points>7500</points></player>
  <player><name>Murray</name><ranking>3</ranking><points>7000</points></player>
  <meta/>
</league>`

// shardCluster builds n gossip-enabled peers, shards shardTestDoc on the
// first, and gossips until every peer sees every fragment advertisement.
func shardCluster(t *testing.T, n int) (*p2p.Network, []*Peer, []*membership.Gossip) {
	t.Helper()
	return shardClusterWithLog(t, n, wal.NewMemory())
}

// shardClusterWithLog is shardCluster with log as the sharding peer's log.
func shardClusterWithLog(t *testing.T, n int, log wal.Log) (*p2p.Network, []*Peer, []*membership.Gossip) {
	t.Helper()
	net := p2p.NewNetwork(0)
	ids := make([]p2p.PeerID, n)
	for i := range ids {
		ids[i] = p2p.PeerID(string(rune('A' + i)))
	}
	peers := make([]*Peer, n)
	gossips := make([]*membership.Gossip, n)
	for i, id := range ids {
		tr := net.Join(id)
		g := membership.New(tr, membership.Config{Seeds: []p2p.PeerID{ids[(i+1)%n]}, Fanout: 2})
		gossips[i] = g
		var l wal.Log = wal.NewMemory()
		if i == 0 {
			l = log
		}
		peers[i] = NewPeer(tr, l, Options{Membership: g})
	}
	if err := peers[0].HostDocument("league", shardTestDoc); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].ShardHostedDocument("league", 0); err != nil {
		t.Fatal(err)
	}
	converge(t, peers, gossips, func() bool {
		for _, p := range peers[1:] {
			ads, spine := p.opts.Membership.DocumentFragments("league")
			if len(ads) != 3 || len(spine) != 1 {
				return false
			}
		}
		return true
	})
	return net, peers, gossips
}

func converge(t *testing.T, peers []*Peer, gossips []*membership.Gossip, ok func() bool) {
	t.Helper()
	for i := 0; i < 200 && !ok(); i++ {
		for _, g := range gossips {
			g.Tick(bg)
		}
	}
	if !ok() {
		t.Fatal("cluster did not converge")
	}
}

func TestShardAssembleRemote(t *testing.T) {
	_, peers, _ := shardCluster(t, 3)
	ref, err := xmldom.ParseString("league", shardTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Both a non-holder and the sharding peer itself reassemble correctly.
	for _, p := range []*Peer{peers[2], peers[0]} {
		got, err := p.AssembleSharded(bg, "league")
		if err != nil {
			t.Fatalf("peer %s: %v", p.ID(), err)
		}
		if !got.Equal(ref) {
			t.Fatalf("peer %s assembled wrong document:\n%s", p.ID(), xmldom.DocumentString(got))
		}
	}
	if got := peers[2].Metrics().FragFetches.Load(); got < 3 {
		t.Fatalf("remote assembler made %d fragment fetches, want >= 3", got)
	}
}

// TestShardAssembleMissingHolderFails: the fragment set of an assembly is the
// manifest that travels with the spine. When one manifest fragment has no
// advertised holder (mid-handoff, or its holder withdrew), assembly must
// fail — never return the document minus that subtree.
func TestShardAssembleMissingHolderFails(t *testing.T) {
	_, peers, gossips := shardCluster(t, 3)
	a, c := peers[0], peers[2]
	lost := a.Store().Fragments()[0].ID
	gossips[0].WithdrawFragment(string(lost))
	converge(t, peers, gossips, func() bool {
		return len(c.fragmentOwners(string(lost))) == 0
	})
	doc, err := c.AssembleSharded(bg, "league")
	if err == nil {
		t.Fatalf("assembly succeeded without fragment %s:\n%s", lost, xmldom.DocumentString(doc))
	}
	if !strings.Contains(err.Error(), string(lost)) {
		t.Fatalf("err = %v, want it to name fragment %s", err, lost)
	}
}

func TestShardMigrationHandoff(t *testing.T) {
	_, peers, gossips := shardCluster(t, 3)
	a, b, c := peers[0], peers[1], peers[2]
	frags := a.Store().Fragments()
	id := frags[0].ID

	if err := a.MigrateFragment(bg, id, b.ID()); err != nil {
		t.Fatal(err)
	}
	if _, held := a.Store().GetFragment(id); held {
		t.Fatal("source still holds migrated fragment")
	}
	f, held := b.Store().GetFragment(id)
	if !held {
		t.Fatal("destination does not hold migrated fragment")
	}
	if f.Version != frags[0].Version+1 {
		t.Fatalf("shipped version = %d, want %d", f.Version, frags[0].Version+1)
	}
	// After convergence the third peer prefers the destination and the
	// document still assembles identically everywhere.
	converge(t, peers, gossips, func() bool {
		owners := c.opts.Membership.FragmentOwners(string(id))
		return len(owners) == 1 && owners[0] == b.ID()
	})
	ref, _ := xmldom.ParseString("league", shardTestDoc)
	got, err := c.AssembleSharded(bg, "league")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Fatal("post-migration assembly differs")
	}
	// The handoff left a begin/commit pair in the WAL.
	var begins, commits int
	for _, r := range a.Store().Log().Records() {
		if strings.HasPrefix(r.Txn, "frag-mig-") {
			switch r.Type {
			case wal.TypeBegin:
				begins++
			case wal.TypeCommit:
				commits++
			}
		}
	}
	if begins != 1 || commits != 1 {
		t.Fatalf("migration WAL records: %d begins, %d commits", begins, commits)
	}
}

func TestShardMigrationCrashPromotesShadow(t *testing.T) {
	net, peers, gossips := shardCluster(t, 3)
	a, b, c := peers[0], peers[1], peers[2]
	id := a.Store().Fragments()[0].ID

	if err := a.MigrateFragment(bg, id, b.ID()); err != nil {
		t.Fatal(err)
	}
	shipped, _ := b.Store().GetFragment(id)
	// Destination dies right after the handoff; gossip failure detection
	// fires OnDown at the source, which reconciles the shadow copy.
	net.Disconnect(b.ID())
	converge(t, []*Peer{a, c}, []*membership.Gossip{gossips[0], gossips[2]}, func() bool {
		_, held := a.Store().GetFragment(id)
		return held
	})
	promoted, _ := a.Store().GetFragment(id)
	if promoted.Version <= shipped.Version {
		t.Fatalf("promoted version %d does not outrank shipped %d", promoted.Version, shipped.Version)
	}
	if a.Metrics().FragPromotions.Load() != 1 {
		t.Fatalf("promotions = %d, want 1", a.Metrics().FragPromotions.Load())
	}
	// Compensation is WAL-logged.
	var compBegin, compEnd bool
	for _, r := range a.Store().Log().Records() {
		if strings.HasPrefix(r.Txn, "frag-mig-") {
			switch r.Type {
			case wal.TypeCompensateBegin:
				compBegin = true
			case wal.TypeCompensateEnd:
				compEnd = true
			}
		}
	}
	if !compBegin || !compEnd {
		t.Fatal("promotion did not log compensation records")
	}
	// The document assembles correctly from the promoted copy.
	ref, _ := xmldom.ParseString("league", shardTestDoc)
	got, err := c.AssembleSharded(bg, "league")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Fatal("post-promotion assembly differs")
	}
}

func TestShardPlacementFollowsHeat(t *testing.T) {
	_, peers, gossips := shardCluster(t, 3)
	a, c := peers[0], peers[2]
	id := a.Store().Fragments()[0].ID

	// A skewed workload: one remote caller hammers one fragment.
	for i := 0; i < 10; i++ {
		if _, err := c.FetchFragment(bg, id); err != nil {
			t.Fatal(err)
		}
	}
	if moved := a.PlacementTick(bg); moved != 1 {
		t.Fatalf("placement moved %d fragments, want 1", moved)
	}
	if _, held := c.Store().GetFragment(id); !held {
		t.Fatal("hot fragment did not move to its dominant caller")
	}
	// Subsequent fetches at the caller are local; the other fragments, with
	// no skewed traffic, stayed put.
	if n := len(a.Store().Fragments()); n != 2 {
		t.Fatalf("source retains %d fragments, want 2", n)
	}
	converge(t, peers, gossips, func() bool {
		owners := peers[1].opts.Membership.FragmentOwners(string(id))
		return len(owners) == 1 && owners[0] == c.ID()
	})
}

// TestShardMigrationLogFailures: a migration never acts past a log append
// that failed. Without its begin record no handoff is sent; a failed abort
// or commit record is returned to the caller.
func TestShardMigrationLogFailures(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failNext int64 // which append of the migration fails
		destDown bool  // the destination is unreachable, so the handoff aborts
		shipped  bool  // the destination ends up holding the fragment
	}{
		{"begin", 1, false, false},
		{"abort", 2, true, false},
		{"commit", 2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &faultyLog{Log: wal.NewMemory()}
			net, peers, _ := shardClusterWithLog(t, 2, log)
			a, b := peers[0], peers[1]
			id := a.Store().Fragments()[0].ID
			if tc.destDown {
				net.Disconnect(b.ID())
			}
			log.failNext(tc.failNext)
			if err := a.MigrateFragment(bg, id, b.ID()); !errors.Is(err, errInjected) {
				t.Fatalf("MigrateFragment = %v, want the injected append failure", err)
			}
			if _, held := b.Store().GetFragment(id); held != tc.shipped {
				t.Fatalf("destination holds the fragment: %v, want %v", held, tc.shipped)
			}
			if _, held := a.Store().GetFragment(id); held == tc.shipped {
				t.Fatalf("source holds the fragment: %v, want %v", held, !tc.shipped)
			}
			if n := a.Metrics().FragMigrations.Load(); n != 0 {
				t.Fatalf("FragMigrations = %d, want 0", n)
			}
		})
	}
}

// TestShardPromotionNeedsItsBeginRecord: reconcile does not promote a
// shadow whose compensate-begin record failed to append, and counts the
// failure; the next reconcile promotes it.
func TestShardPromotionNeedsItsBeginRecord(t *testing.T) {
	log := &faultyLog{Log: wal.NewMemory()}
	net, peers, gossips := shardClusterWithLog(t, 3, log)
	a, b, c := peers[0], peers[1], peers[2]
	id := a.Store().Fragments()[0].ID
	if err := a.MigrateFragment(bg, id, b.ID()); err != nil {
		t.Fatal(err)
	}
	// The destination dies; the reconcile that OnDown runs at the source
	// hits the failing append.
	log.failNext(1)
	net.Disconnect(b.ID())
	converge(t, []*Peer{a, c}, []*membership.Gossip{gossips[0], gossips[2]}, func() bool {
		return a.Metrics().AbortErrors.Load() > 0
	})
	if _, held := a.Store().GetFragment(id); held {
		t.Fatal("shadow promoted without its compensate-begin record")
	}
	if n := a.Metrics().AbortErrors.Load(); n != 1 {
		t.Fatalf("AbortErrors = %d, want 1", n)
	}
	a.ReconcileFragments()
	if _, held := a.Store().GetFragment(id); !held {
		t.Fatal("shadow not promoted once its record could be appended")
	}
	if n := a.Metrics().FragPromotions.Load(); n != 1 {
		t.Fatalf("FragPromotions = %d, want 1", n)
	}
}
