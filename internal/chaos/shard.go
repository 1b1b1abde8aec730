package chaos

import (
	"context"
	"fmt"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/membership"
	"axmltx/internal/p2p"
	"axmltx/internal/xmldom"
)

// shardSrc is the sharded workload document: three fragment-sized player
// subtrees plus a small meta child that stays in the spine.
const shardSrc = `<league>
  <player><name>Federer</name><ranking>1</ranking><points>8000</points></player>
  <player><name>Djokovic</name><ranking>2</ranking><points>7500</points></player>
  <player><name>Murray</name><ranking>3</ranking><points>7000</points></player>
  <meta/>
</league>`

// runShard drives the skewed-hotspot sharding scenario (sh): AP1 shards a
// document into three fragments advertised through the gossip catalog; AP3
// hammers assembly from across the cluster; AP1 then migrates a fragment to
// AP2, which dies the moment the handoff acks — before its announcement can
// spread. The failure detector must fire OnDown at the source, whose shadow
// copy is re-promoted at a higher version (WAL-logged compensation, §3.1),
// and assembly must converge back to the reference document. Safety — every
// assembly that SUCCEEDS equals the reference, i.e. no reader ever observes
// a torn fragment set — is asserted on every run; the liveness outcomes
// (migration completes, promotion fires, assembly recovers) gate canonical
// runs only.
func runShard(c *Cluster) runResult {
	c.Gossip = &membership.Config{
		ProbeInterval:  5 * time.Millisecond,
		SuspectRounds:  2,
		IndirectProbes: 2,
		Fanout:         2,
	}
	const docName = "L.xml"
	for _, id := range []p2p.PeerID{"AP1", "AP2", "AP3", "AP4"} {
		c.Add(id, core.Options{Super: id == "AP1"})
	}
	c.Inj.Protect("AP1")
	// The transactional workload runs against AP4, keeping AP2 — the crash
	// victim — out of the transaction so fragment recovery and transaction
	// recovery stay independently observable.
	c.HostEntry("AP4", "S4w", "D4.xml", "D4")
	ap1, ap3 := c.Peers["AP1"], c.Peers["AP3"]
	if err := ap1.HostDocument(docName, shardSrc); err != nil {
		panic(err)
	}
	if err := ap1.ShardHostedDocument(docName, 0); err != nil {
		panic(err)
	}
	c.ConnectGossip()
	bg := context.Background()
	c.GossipRounds(bg, 10) // converged bootstrap
	for i := 0; i < 300; i++ {
		ads, spine := c.Members["AP3"].DocumentFragments(docName)
		if len(ads) == 3 && len(spine) == 1 {
			break
		}
		c.GossipRounds(bg, 1)
	}
	c.SnapshotAll()

	var res runResult
	txc := ap1.Begin()
	res.txn = txc.ID
	if _, err := ap1.Call(bg, txc, "AP4", "S4w", nil); err != nil {
		_ = ap1.Abort(bg, txc)
	} else {
		res.committed = ap1.Commit(bg, txc) == nil
	}

	ref, err := xmldom.ParseString(docName, shardSrc)
	if err != nil {
		panic(err)
	}
	// Skewed read traffic: AP3 repeatedly reassembles the document it holds
	// no fragment of. Under noise individual fetches may fail — only the
	// assemblies that succeed are held to the safety bar.
	assembled := 0
	for i := 0; i < 6; i++ {
		doc, err := ap3.AssembleSharded(bg, docName)
		if err != nil {
			continue
		}
		assembled++
		if !doc.Equal(ref) {
			res.safety = append(res.safety, "AP3 assembled a torn document pre-migration")
		}
	}
	if assembled == 0 {
		res.coherence = append(res.coherence, "no pre-migration assembly succeeded")
	}

	// Migrate the first fragment (deterministic: Fragments() sorts by ID)
	// and crash the destination the instant the handoff acks, before its
	// announcement can spread through the catalog.
	frags := ap1.Store().Fragments()
	if len(frags) == 0 {
		res.coherence = append(res.coherence, "source holds no fragments to migrate")
		return res
	}
	id := frags[0].ID
	baseVersion := frags[0].Version
	if err := ap1.MigrateFragment(bg, id, "AP2"); err != nil {
		res.coherence = append(res.coherence, "migration handoff failed: "+err.Error())
		return res
	}
	c.Inj.Crash("AP2")
	for i := 0; i < 300; i++ {
		if st, ok := c.Members["AP1"].StateOf("AP2"); ok && st == membership.StateDead {
			break
		}
		c.GossipRounds(bg, 1)
	}
	// Death detection fires OnDown → ReconcileFragments at the source; keep
	// gossiping until the shadow copy is promoted back into the store.
	for i := 0; i < 300; i++ {
		if _, held := ap1.Store().GetFragment(id); held {
			break
		}
		c.GossipRounds(bg, 1)
	}
	promoted, held := ap1.Store().GetFragment(id)
	switch {
	case !held:
		res.coherence = append(res.coherence, "source never re-promoted the fragment after the destination died")
	case promoted.Version <= baseVersion+1:
		res.coherence = append(res.coherence, fmt.Sprintf(
			"promoted fragment version %d does not outrank the shipped copy (%d)", promoted.Version, baseVersion+1))
	}
	if held && ap1.Metrics().FragPromotions.Load() == 0 {
		res.coherence = append(res.coherence, "promotion left no FragPromotions trace")
	}

	// Assembly must converge back to the reference from the promoted copy.
	// AP3 may still trust the dead destination's advertisement for a few
	// rounds; fetch fallback plus catalog pruning get it there.
	finalOK := false
	for i := 0; i < 10 && !finalOK; i++ {
		doc, err := ap3.AssembleSharded(bg, docName)
		if err != nil {
			c.GossipRounds(bg, 5)
			continue
		}
		finalOK = true
		if !doc.Equal(ref) {
			res.safety = append(res.safety, "AP3 assembled a torn document post-promotion")
		}
	}
	if !finalOK {
		res.coherence = append(res.coherence, "no assembly succeeded after the fragment owner crash")
	}
	if ap3.Metrics().FragFetches.Load() < 3 {
		res.coherence = append(res.coherence, "AP3 assembled without remote fragment fetches")
	}
	return res
}
