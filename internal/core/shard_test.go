package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"axmltx/internal/axml"
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
	// One request for the spine, one for all of the single holder's
	// fragments.
	if got := peers[2].Metrics().FragFetches.Load(); got != 2 {
		t.Fatalf("remote assembler made %d fragment fetch requests, want 2", got)
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

// fetchLog records the fragment-fetch requests a peer sends, as
// "<holder>:<id>,<id>..." in the order they were sent.
type fetchLog struct {
	p2p.Transport
	mu   sync.Mutex
	reqs []string
}

func recordFetches(p *Peer) *fetchLog {
	l := &fetchLog{Transport: p.transport}
	p.transport = l
	return l
}

func (l *fetchLog) Request(ctx context.Context, to p2p.PeerID, msg *p2p.Message) (*p2p.Message, error) {
	if msg.Kind == p2p.KindFragFetch {
		var req FragFetchRequest
		if err := decode(msg.Payload, &req); err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.reqs = append(l.reqs, string(to)+":"+strings.Join(req.IDs, ","))
		l.mu.Unlock()
	}
	return l.Transport.Request(ctx, to, msg)
}

func (l *fetchLog) requests() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.reqs...)
}

// staticShardCluster builds n peers without gossip; the first hosts and
// shards shardTestDoc, and every other peer's replica table lists it as the
// holder of the spine and of every fragment. It returns the fragment IDs in
// manifest order.
func staticShardCluster(t *testing.T, n int) ([]*Peer, []string) {
	t.Helper()
	net := p2p.NewNetwork(0)
	peers := make([]*Peer, n)
	for i := range peers {
		peers[i] = NewPeer(net.Join(p2p.PeerID(string(rune('A'+i)))), wal.NewMemory(), Options{})
	}
	a := peers[0]
	if err := a.HostDocument("league", shardTestDoc); err != nil {
		t.Fatal(err)
	}
	if err := a.ShardHostedDocument("league", 0); err != nil {
		t.Fatal(err)
	}
	manifest, _ := a.Store().Manifest("league")
	ids := make([]string, len(manifest))
	for i, id := range manifest {
		ids[i] = string(id)
	}
	for _, p := range peers[1:] {
		for _, id := range append([]string{"league#spine"}, ids...) {
			p.Replicas().AddFragment(id, a.ID())
		}
	}
	return peers, ids
}

// assembleEqual assembles league at p and fails unless it equals
// shardTestDoc.
func assembleEqual(t *testing.T, p *Peer) *xmldom.Document {
	t.Helper()
	got, err := p.AssembleSharded(bg, "league")
	if err != nil {
		t.Fatalf("peer %s: %v", p.ID(), err)
	}
	ref, err := xmldom.ParseString("league", shardTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Fatalf("peer %s assembled wrong document:\n%s", p.ID(), xmldom.DocumentString(got))
	}
	return got
}

func wantRequests(t *testing.T, p *Peer, l *fetchLog, want ...string) {
	t.Helper()
	got := l.requests()
	// Requests to different holders overlap, so their order is not fixed.
	sortedGot, sortedWant := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(sortedGot)
	sort.Strings(sortedWant)
	if !reflect.DeepEqual(sortedGot, sortedWant) {
		t.Fatalf("fetch requests = %q, want %q", got, want)
	}
	if n := p.Metrics().FragFetches.Load(); n != int64(len(want)) {
		t.Fatalf("FragFetches = %d, want %d", n, len(want))
	}
}

// TestShardAssembleOneRequestPerHolder: with one fragment migrated to B, a
// third peer's assembly sends three requests — the spine, A's fragments in
// one batch, B's fragment in another.
func TestShardAssembleOneRequestPerHolder(t *testing.T) {
	_, peers, gossips := shardCluster(t, 3)
	a, b, c := peers[0], peers[1], peers[2]
	moved := a.Store().Fragments()[0].ID
	if err := a.MigrateFragment(bg, moved, b.ID()); err != nil {
		t.Fatal(err)
	}
	converge(t, peers, gossips, func() bool {
		owners := c.fragmentOwners(string(moved))
		return len(owners) == 1 && owners[0] == b.ID()
	})
	var stay []string
	manifest, _ := a.Store().Manifest("league")
	for _, id := range manifest {
		if id != moved {
			stay = append(stay, string(id))
		}
	}
	l := recordFetches(c)
	assembleEqual(t, c)
	wantRequests(t, c, l, "A:league#spine", "A:"+strings.Join(stay, ","), "B:"+string(moved))
}

// TestShardAssembleStaleHolderRetried: a stale advertisement ranked first
// for a migrated fragment costs one retry of that fragment alone, at its
// next-ranked holder.
func TestShardAssembleStaleHolderRetried(t *testing.T) {
	peers, ids := staticShardCluster(t, 3)
	a, b, c := peers[0], peers[1], peers[2]
	moved := ids[1]
	c.Replicas().AddFragment(moved, b.ID()) // ranked after A
	if err := a.MigrateFragment(bg, axml.FragmentID(moved), b.ID()); err != nil {
		t.Fatal(err)
	}
	if got := c.fragmentOwners(moved); !reflect.DeepEqual(got, []p2p.PeerID{a.ID(), b.ID()}) {
		t.Fatalf("owners of %s = %v, want the stale A first", moved, got)
	}
	l := recordFetches(c)
	assembleEqual(t, c)
	wantRequests(t, c, l, "A:league#spine", "A:"+strings.Join(ids, ","), "B:"+moved)
}

// TestShardAssembleLocalFragmentsNotRequested: fragments the assembler holds
// come from its own store and are left out of the holder's batch.
func TestShardAssembleLocalFragmentsNotRequested(t *testing.T) {
	peers, ids := staticShardCluster(t, 2)
	a, c := peers[0], peers[1]
	local := ids[0]
	if err := a.MigrateFragment(bg, axml.FragmentID(local), c.ID()); err != nil {
		t.Fatal(err)
	}
	l := recordFetches(c)
	assembleEqual(t, c)
	wantRequests(t, c, l, "A:league#spine", "A:"+strings.Join(ids[1:], ","))
	if caller, _, total := c.frag.heat.Dominant(local); caller != string(c.ID()) || total == 0 {
		t.Fatalf("local fragment heat = %v from %q, want the assembler's own access", total, caller)
	}
}

// TestShardAssembleReplyBudget: a holder whose reply budget fits one
// fragment serves a batch over several requests, each answering the first
// piece still wanted and deferring the rest, and the document arrives
// byte-identical.
func TestShardAssembleReplyBudget(t *testing.T) {
	peers, ids := staticShardCluster(t, 2)
	a, c := peers[0], peers[1]
	whole := xmldom.DocumentString(assembleEqual(t, c))
	c.metrics.FragFetches.Store(0)
	a.frag.replyBudget = 1
	l := recordFetches(c)
	if got := xmldom.DocumentString(assembleEqual(t, c)); got != whole {
		t.Fatalf("budgeted assembly differs:\n got %s\nwant %s", got, whole)
	}
	want := []string{"A:league#spine"}
	for i := range ids {
		want = append(want, "A:"+strings.Join(ids[i:], ","))
	}
	wantRequests(t, c, l, want...)
}

// TestShardAssembleHeatPerFragment: one remote assembly leaves the holder's
// heat for each fragment equal to the fragment's Nodes, all of it
// attributed to the assembler.
func TestShardAssembleHeatPerFragment(t *testing.T) {
	peers, _ := staticShardCluster(t, 2)
	a, c := peers[0], peers[1]
	assembleEqual(t, c)
	for _, f := range a.Store().Fragments() {
		caller, share, total := a.frag.heat.Dominant(string(f.ID))
		if caller != string(c.ID()) || share != 1 || total != float64(f.Nodes) {
			t.Fatalf("heat of %s = %v (%.2f from %q), want %d from %s", f.ID, total, share, caller, f.Nodes, c.ID())
		}
	}
}

// TestShardFragmentOwnersRanking: without a catalog the owners are the
// replica table's ranked holders; with one, the catalog's version-ranked
// owners come first and the table adds the holders the catalog lacks.
func TestShardFragmentOwnersRanking(t *testing.T) {
	peers, ids := staticShardCluster(t, 2)
	c := peers[1]
	c.Replicas().AddFragment(ids[0], "X")
	if got, want := c.fragmentOwners(ids[0]), []p2p.PeerID{"A", "X"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("without a catalog: owners = %v, want %v", got, want)
	}

	_, gpeers, _ := shardCluster(t, 3)
	gc := gpeers[2]
	id := string(gpeers[0].Store().Fragments()[0].ID)
	gc.Replicas().AddFragment(id, "X")
	gc.Replicas().AddFragment(id, "A")
	if got, want := gc.fragmentOwners(id), []p2p.PeerID{"A", "X"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("with a catalog: owners = %v, want %v", got, want)
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
