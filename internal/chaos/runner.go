package chaos

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/membership"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/replication"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Config selects one conformance run: a scenario, a seed, and an optional
// noise schedule layered on top of the scenario's scripted fault.
type Config struct {
	// Scenario is one of Scenarios(): "fig1" (Figure 1 workload, commits),
	// "fig1f" (Figure 1 with the F5 service fault at AP5, aborts), "sphere"
	// (Figure 1 with every peer super — a Sphere of Atomicity), the §3.3
	// disconnection scenarios "a"–"d", and "bg" — scenario "b" rerun with
	// gossip membership maintaining the replica catalog instead of static
	// table entries, plus an extra S3 replica that dies before the workload
	// so forward recovery must pick the live one.
	Scenario string
	// Seed drives every probabilistic decision in the fault schedule.
	Seed int64
	// Faults is an extra noise schedule in the rule DSL (see ParseRules),
	// layered after the scenario's own scripted rules. Empty means a
	// canonical run, which additionally asserts the scenario's liveness
	// outcome (commit/abort, reuse); with noise only safety is asserted.
	Faults string
	// Sink, when non-nil, receives every span of the run — protocol spans
	// and the injector's KindFault spans interleaved.
	Sink obs.Sink
}

// Report is the outcome of one conformance run. Violations empty = the run
// conforms; anything else is a reproducible counterexample (see Repro).
type Report struct {
	Scenario   string
	Seed       int64
	Faults     string // the noise schedule (not the scenario's own rules)
	Txn        string
	Committed  bool
	Canonical  bool
	Injections int
	Restarts   int
	WorkReused int64
	Violations []string
}

// Repro renders the one-line command that replays this run.
func (r *Report) Repro() string {
	s := fmt.Sprintf("axmlbench -run chaos -scenario %s -seed %d", r.Scenario, r.Seed)
	if r.Faults != "" {
		s += fmt.Sprintf(" -faults %q", r.Faults)
	}
	return s
}

// Scenarios lists the conformance scenarios in sweep order.
func Scenarios() []string {
	return []string{"fig1", "fig1f", "sphere", "a", "b", "bg", "c", "d", "cc", "sh"}
}

// scenarioRules returns the scripted fault that defines each scenario —
// the disconnection of §3.3 expressed as a schedule rule, so it rides the
// same injection machinery as the noise.
func scenarioRules(scenario string) ([]Rule, error) {
	switch scenario {
	case "fig1", "fig1f", "sphere", "c", "cc", "sh":
		// fig1* fail (or don't) at the service level; (c), (cc) and (sh)
		// crash programmatically mid-run, no message triggers it.
		return nil, nil
	case "a":
		// Leaf AP6 dies the moment work reaches it (§3.3 case a).
		return []Rule{{Fault: FaultCrash, Peer: "AP6", To: "AP6", Kind: p2p.KindInvoke, Times: 1}}, nil
	case "b", "bg":
		// AP3 dies exactly when AP6 pushes results back to it (§3.3 case b):
		// the child discovers the death and redirects past the dead parent.
		// "bg" keeps the same scripted fault but sources the replica catalog
		// from gossip rather than static table entries.
		return []Rule{{Fault: FaultCrash, Peer: "AP3", To: "AP3", Kind: p2p.KindResult, Times: 1}}, nil
	case "d":
		// AP3 dies mid-stream to its sibling AP4 (§3.3 case d): the third
		// batch never arrives and silence reveals the death.
		return []Rule{{Fault: FaultCrash, Peer: "AP3", To: "AP4", Kind: p2p.KindStream, After: 2, Times: 1}}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %q (want one of %v)", scenario, Scenarios())
	}
}

// runResult carries what the workload learned before the heal phase.
type runResult struct {
	txn       string
	committed bool
	sphereOK  bool
	// coherence collects the cache-coherence findings of scenario cc and the
	// sharding liveness findings of scenario sh; they gate canonical runs
	// only (noise may legitimately abort the workload before those phases).
	coherence []string
	// safety collects scenario-specific findings that must hold on EVERY
	// run, noise or not — e.g. a successfully assembled sharded document
	// that differs from the reference (a torn fragment set).
	safety []string
}

// Run executes one conformance run: build the scenario's cluster behind the
// injector, drive the workload, heal (lift partitions, restart crashed
// peers through WAL replay), reconcile stragglers with the final decision,
// and check the relaxed-atomicity invariants on every peer's log.
func Run(cfg Config) (*Report, error) {
	if cfg.Scenario == "" {
		cfg.Scenario = "fig1"
	}
	noise, err := ParseRules(cfg.Faults)
	if err != nil {
		return nil, err
	}
	scripted, err := scenarioRules(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	rules := append(append([]Rule(nil), scripted...), noise...)
	inj := NewInjector(cfg.Seed, rules, cfg.Sink)
	c := NewCluster(inj)
	c.Sink = cfg.Sink
	rep := &Report{
		Scenario:  cfg.Scenario,
		Seed:      cfg.Seed,
		Faults:    cfg.Faults,
		Canonical: len(noise) == 0,
	}

	var res runResult
	switch cfg.Scenario {
	case "fig1", "fig1f", "sphere":
		res = runFig1(c, cfg.Scenario)
	case "cc":
		res = runCacheCoherence(c)
	case "sh":
		res = runShard(c)
	default:
		res = runDisconnection(c, cfg.Scenario)
	}
	rep.Txn = res.txn
	rep.Committed = res.committed

	rep.Violations = c.Settle(res.txn, res.committed)
	rep.Violations = append(rep.Violations, res.safety...)

	rep.Injections = len(inj.Injections())
	rep.Restarts = inj.Restarts()
	rep.WorkReused = c.TotalMetrics().WorkReused

	if rep.Canonical {
		rep.Violations = append(rep.Violations, canonicalViolations(cfg.Scenario, c, res, rep)...)
	}
	return rep, nil
}

// peerIDs returns the cluster's peers in sorted order, for deterministic
// reconciliation and reporting.
func (c *Cluster) peerIDs() []p2p.PeerID {
	ids := make([]p2p.PeerID, 0, len(c.Peers))
	for id := range c.Peers {
		ids = append(ids, id)
	}
	sortPeers(ids)
	return ids
}

// Settle ends a run: it heals the injector (crashed peers restart through
// WAL replay, partitions lift, held messages flush), then re-sends the final
// decision to every peer — the eventual outcome propagation a rejoined peer
// performs (§3.3) — and checks the invariants until they hold or a deadline
// passes. Both decision handlers are idempotent, so re-sending each round is
// safe. It returns the violations that remain.
func (c *Cluster) Settle(txn string, committed bool) []string {
	time.Sleep(10 * time.Millisecond) // let in-flight async work land or fail
	c.Inj.Heal()
	// The reconciler joins the network unwrapped: the decision itself does
	// not ride the fault schedule.
	rec := c.Net.Join("__reconciler__")
	defer rec.Close()
	kind := p2p.KindAbort
	if committed {
		kind = p2p.KindCommit
	}
	ids := c.peerIDs()
	deadline := time.Now().Add(3 * time.Second)
	for {
		for _, id := range ids {
			_ = rec.Send(context.Background(), id, &p2p.Message{Kind: kind, Txn: txn})
		}
		time.Sleep(5 * time.Millisecond)
		v := c.checkInvariants(txn, committed)
		if len(v) == 0 || time.Now().After(deadline) {
			return v
		}
	}
}

// checkInvariants runs the per-log laws on every peer and — on a global
// abort — checks every snapshotted document is back to its snapshot.
func (c *Cluster) checkInvariants(txn string, committed bool) []string {
	var out []string
	for _, id := range c.peerIDs() {
		out = append(out, LogViolations(id, c.Logs[id], txn)...)
	}
	if !committed {
		out = append(out, c.RestoredViolations()...)
	}
	return out
}

// LogViolations runs the per-log laws over one peer's log: the log is
// replayable (contiguous LSNs), plus TxnViolations.
func LogViolations(id p2p.PeerID, log wal.Log, txn string) []string {
	var out []string
	if err := core.CheckReplayConsistency(log.Records()); err != nil {
		out = append(out, fmt.Sprintf("%s: %v", id, err))
	}
	return append(out, TxnViolations(id, log, txn)...)
}

// TxnViolations runs the per-transaction laws over one peer's log: every
// compensation undoes its epoch in reverse order, a transaction that did
// not commit leaves no effect behind, and a committed one is never
// compensated.
func TxnViolations(id p2p.PeerID, log wal.Log, txn string) []string {
	var out []string
	for _, check := range []func(wal.Log, string) error{
		core.CheckReverseCompensationOrder,
		core.CheckCompensationComplete,
		core.CheckNoCompensationAfterCommit,
	} {
		if err := check(log, txn); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", id, err))
		}
	}
	return out
}

// canonicalViolations asserts the scenario's liveness outcome on noise-free
// runs: the scripted fault alone must produce the paper's result.
func canonicalViolations(scenario string, c *Cluster, res runResult, rep *Report) []string {
	var out []string
	wantCommit := scenario != "fig1f" && scenario != "a"
	if res.committed != wantCommit {
		out = append(out, fmt.Sprintf("canonical %s run: committed=%v, want %v", scenario, res.committed, wantCommit))
	}
	switch scenario {
	case "sphere":
		if !res.sphereOK {
			out = append(out, "canonical sphere run: all-super chain not recognized as a Sphere of Atomicity")
		}
	case "b", "bg":
		if rep.WorkReused == 0 {
			out = append(out, fmt.Sprintf("canonical %s run: redirected results were not reused by the forward recovery", scenario))
		}
		if scenario == "bg" {
			// Forward recovery tries exactly one alternative, so a commit
			// proves the live replica was chosen — but assert the placement
			// directly: the dead replica AP3c must hold no work, the live
			// replica AP3b must hold the recovered invocation.
			if n := c.CountEntries("AP3c", "D3c.xml"); n != 0 {
				out = append(out, fmt.Sprintf("canonical bg run: dead replica AP3c holds %d entr(ies), want 0 (recovery must pick a live replica)", n))
			}
			if n := c.CountEntries("AP3b", "D3b.xml"); n == 0 {
				out = append(out, "canonical bg run: live replica AP3b holds no entries, want the forward-recovered S3 invocation")
			}
		}
	case "c":
		// The dead peer's orphaned descendant must have discarded its work
		// (§3.3: "not continue wasting effort") even though the transaction
		// as a whole commits via the replica.
		if n := c.CountEntries("AP6", "D6.xml"); n != 0 {
			out = append(out, fmt.Sprintf("canonical c run: AP6 kept %d orphaned entr(ies), want 0 (orphaned work discarded)", n))
		}
	case "cc", "sh":
		for _, v := range res.coherence {
			out = append(out, "canonical "+scenario+" run: "+v)
		}
	}
	return out
}

// runFig1 drives the Figure 1 workload: AP1's composite S1 fans out to
// S2@AP2 and S3@AP3; S3 to S4@AP4 and S5@AP5; S5 to S6@AP6. Variant
// "fig1f" injects the paper's F5 service fault at AP5 (nested backward
// recovery aborts everything); "sphere" makes every peer super.
func runFig1(c *Cluster, variant string) runResult {
	ids := []p2p.PeerID{"AP1", "AP2", "AP3", "AP4", "AP5", "AP6"}
	for _, id := range ids {
		super := variant == "sphere" || id == "AP1"
		c.Add(id, core.Options{Super: super})
		if super {
			c.Inj.Protect(id) // super peers "do not disconnect" (§3.3)
		}
	}
	c.HostEntry("AP2", "S2", "D2.xml", "D2")
	c.HostEntry("AP4", "S4", "D4.xml", "D4")
	c.HostEntry("AP6", "S6", "D6.xml", "D6")
	c.HostComposite("AP5", "S5", "D5.xml", "D5", [][2]string{{"S6", "AP6"}}, "")
	if variant == "fig1f" {
		FailService(c.Peers["AP5"], "S5", "F5")
	}
	c.HostComposite("AP3", "S3", "D3.xml", "D3", [][2]string{{"S4", "AP4"}, {"S5", "AP5"}}, "")
	c.HostComposite("AP1", "S1", "D1.xml", "D1", [][2]string{{"S2", "AP2"}, {"S3", "AP3"}}, "")
	c.SnapshotAll()

	ap1 := c.Peers["AP1"]
	txc := ap1.Begin()
	res := runResult{txn: txc.ID}
	q, err := axml.ParseQuery("Select d/updateResult from d in D1")
	if err != nil {
		panic(err)
	}
	if _, err := ap1.Exec(context.Background(), txc, axml.NewQuery(q)); err != nil {
		_ = ap1.Abort(context.Background(), txc)
		return res
	}
	res.sphereOK = ap1.SpheresOfAtomicityHolds(txc)
	res.committed = ap1.Commit(context.Background(), txc) == nil
	return res
}

// runDisconnection drives the §3.3 disconnection scenarios over the
// topology [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]] with AP3b replicating
// S3. Every step tolerates noise-induced failure by falling back to a clean
// abort — under noise the runner asserts safety, not the scripted outcome.
func runDisconnection(c *Cluster, scenario string) runResult {
	gossip := scenario == "bg"
	if gossip {
		c.Gossip = &membership.Config{
			ProbeInterval:  5 * time.Millisecond,
			SuspectRounds:  2,
			IndirectProbes: 2,
			Fanout:         2,
		}
	}
	ids := []p2p.PeerID{"AP1", "AP2", "AP3", "AP4", "AP5", "AP6", "AP3b"}
	if gossip {
		ids = append(ids, "AP3c")
	}
	for _, id := range ids {
		c.Add(id, core.Options{Super: id == "AP1"})
	}
	c.Inj.Protect("AP1") // the super peer "does not disconnect" (§3.3)
	c.HostEntry("AP2", "S2w", "D2.xml", "D2")
	c.HostEntry("AP3", "S3w", "D3.xml", "D3")
	c.HostEntry("AP4", "S4w", "D4.xml", "D4")
	c.HostEntry("AP5", "S5", "D5.xml", "D5")
	c.HostEntry("AP6", "S6", "D6.xml", "D6")
	c.HostEntry("AP3b", "S3", "D3b.xml", "D3b") // replica provider of S3
	if gossip {
		// The catalog is gossip-maintained: hosting announced every placement
		// above, so replicas of S3 spread without static table entries. A
		// second replica AP3c joins, is learned everywhere, and then dies
		// before the workload — the catalog must prune it so forward recovery
		// (which tries exactly one alternative) lands on the live AP3b.
		c.HostEntry("AP3c", "S3", "D3c.xml", "D3c")
		c.ConnectGossip()
		gctx := context.Background()
		ap2r := c.Peers["AP2"].Replicas()
		for i := 0; i < 300; i++ {
			if hasProvider(ap2r, "S3", "AP3b") && hasProvider(ap2r, "S3", "AP3c") {
				break
			}
			c.GossipRounds(gctx, 1)
		}
		c.Inj.Crash("AP3c")
		for i := 0; i < 300; i++ {
			if st, ok := c.Members["AP2"].StateOf("AP3c"); ok && st == membership.StateDead {
				break
			}
			c.GossipRounds(gctx, 1)
		}
	} else {
		for _, p := range c.Peers {
			p.Replicas().AddService("S3", "AP3")
			p.Replicas().AddService("S3", "AP3b")
		}
	}
	c.SnapshotAll()

	ap1, ap2, ap3, ap4 := c.Peers["AP1"], c.Peers["AP2"], c.Peers["AP3"], c.Peers["AP4"]
	bg := context.Background()
	resultCh := make(chan string, 16)
	ap2.OnResult(func(txn string, resp *core.InvokeResponse) {
		select {
		case resultCh <- resp.Service:
		default:
		}
	})

	txc := ap1.Begin()
	res := runResult{txn: txc.ID}
	abort := func() runResult {
		_ = ap1.Abort(bg, txc)
		return res
	}
	finish := func(recovered bool) runResult {
		if recovered {
			res.committed = ap1.Commit(bg, txc) == nil
			return res
		}
		time.Sleep(20 * time.Millisecond)
		return abort()
	}

	// The chain prefix: AP1 → AP2 (S2w); AP2 then drives the branches.
	if _, err := ap1.Call(bg, txc, "AP2", "S2w", nil); err != nil {
		return abort()
	}
	ctx2, ok := ap2.Manager().Get(txc.ID)
	if !ok {
		return abort()
	}

	switch scenario {
	case "a":
		// Leaf AP6 crashes on invocation (scripted rule); AP3 detects and
		// the nested protocol aborts the whole transaction.
		if _, err := ap2.Call(bg, ctx2, "AP3", "S3w", nil); err != nil {
			return abort()
		}
		ctx3, ok := ap3.Manager().Get(txc.ID)
		if !ok {
			return abort()
		}
		if _, err := ap3.Call(bg, ctx3, "AP6", "S6", nil); err != nil {
			return abort()
		}
		// Only reachable when noise pre-empted the scripted crash somehow.
		return finish(true)

	case "b", "bg":
		// AP3 invokes S6 asynchronously, then crashes exactly when AP6
		// pushes the result back (scripted rule); AP6 redirects past the
		// dead parent to AP2, which forward-recovers S3 on AP3b reusing the
		// redirected work. In "bg" the S3 replica set comes from the gossip
		// catalog, already pruned of the dead AP3c.
		release := make(chan struct{})
		var once sync.Once
		rel := func() { once.Do(func() { close(release) }) }
		defer rel()
		Gate(c.Peers["AP6"], "S6", release)
		ap3.HostService(services.NewFuncService(
			services.Descriptor{Name: "S3", ResultName: "updateResult", TargetDocument: "D3.xml"},
			func(cctx context.Context, params map[string]string) ([]string, error) {
				env, _ := core.EnvFrom(cctx)
				if _, err := env.Peer.Call(context.Background(), env.Txn, "AP3", "S3w", nil); err != nil {
					return nil, err
				}
				if err := env.Peer.CallAsync(context.Background(), env.Txn, "AP6", "S6", nil); err != nil {
					return nil, err
				}
				return []string{`<updateResult pending="S6"/>`}, nil
			}))
		if _, err := ap2.Call(bg, ctx2, "AP3", "S3", nil); err != nil {
			return abort()
		}
		rel()
		return finish(WaitService(resultCh, "S3", 5*time.Second))

	case "c":
		// AP3 dies mid-processing (programmatic crash — nothing on the wire
		// triggers it); AP2's pinger detects the death and forward-recovers
		// S3 on AP3b, while AP6's already-finished work stays orphaned until
		// the commit reaches it.
		hang := make(chan struct{})
		defer close(hang)
		ap3.HostService(services.NewFuncService(
			services.Descriptor{Name: "S3", ResultName: "updateResult", TargetDocument: "D3.xml"},
			func(cctx context.Context, params map[string]string) ([]string, error) {
				env, _ := core.EnvFrom(cctx)
				if _, err := env.Peer.Call(context.Background(), env.Txn, "AP3", "S3w", nil); err != nil {
					return nil, err
				}
				if _, err := env.Peer.Call(context.Background(), env.Txn, "AP6", "S6", nil); err != nil {
					return nil, err
				}
				<-hang
				return nil, nil
			}))
		if err := ap2.CallAsync(bg, ctx2, "AP3", "S3", nil); err != nil {
			return abort()
		}
		WaitTrue(2*time.Second, func() bool { return c.CountEntries("AP6", "D6.xml") == 1 })
		c.Inj.Crash("AP3")
		pinger := p2p.NewPinger(ap2.Transport(), time.Millisecond, 1,
			func(id p2p.PeerID) { ap2.OnPeerDown(id) })
		defer pinger.Stop()
		pinger.Watch("AP3")
		pinger.ProbeNow(bg)
		return finish(WaitService(resultCh, "S3", 5*time.Second))

	case "d":
		// AP3 streams to its sibling AP4 and crashes mid-stream (scripted
		// rule on the third batch); stream silence reveals the death, AP4
		// notifies via the chain, and AP2 forward-recovers on AP3b.
		ap3.HostService(services.NewFuncService(
			services.Descriptor{Name: "S3", ResultName: "updateResult", TargetDocument: "D3.xml"},
			func(cctx context.Context, params map[string]string) ([]string, error) {
				env, _ := core.EnvFrom(cctx)
				if _, err := env.Peer.Call(context.Background(), env.Txn, "AP3", "S3w", nil); err != nil {
					return nil, err
				}
				return env.Peer.Call(context.Background(), env.Txn, "AP6", "S6", nil)
			}))
		if _, err := ap2.Call(bg, ctx2, "AP3", "S3", nil); err != nil {
			return abort()
		}
		if _, err := ap2.Call(bg, ctx2, "AP4", "S4w", nil); err != nil {
			return abort()
		}
		silence := make(chan struct{}, 1)
		watcher := services.NewStreamWatcher(40*time.Millisecond, func() {
			select {
			case silence <- struct{}{}:
			default:
			}
		})
		ap4.OnStream(func(b *core.StreamBatch) { watcher.Observe() })
		watcher.Start()
		defer watcher.Stop()
		for seq := 0; seq < 3; seq++ {
			_ = ap3.StreamTo("AP4", &core.StreamBatch{Txn: txc.ID, Service: "S3", Seq: seq})
		}
		select {
		case <-silence:
		case <-time.After(5 * time.Second):
		}
		ap4.NotifySiblingDown(txc.ID, "AP3")
		return finish(WaitService(resultCh, "S3", 5*time.Second))

	default:
		panic("chaos: unknown scenario " + scenario)
	}
}

// runCacheCoherence drives the cache-coherence scenario (cc): AP2
// materializes a call with a short freshness window and advertises the
// cached result through gossip; AP3 fetches it over KindCacheFetch instead
// of re-invoking the provider. Then AP2 — the cache owner — crashes and the
// window expires while it is gone. Once the failure detector prunes AP2, no
// surviving catalog may still hold a usable advertisement, and AP3's next
// materialization must reach the provider again: no transaction observes a
// result older than its freshness window.
func runCacheCoherence(c *Cluster) runResult {
	c.Gossip = &membership.Config{
		ProbeInterval:  5 * time.Millisecond,
		SuspectRounds:  2,
		IndirectProbes: 2,
		Fanout:         2,
	}
	const window = 40 * time.Millisecond
	for _, id := range []p2p.PeerID{"AP1", "AP2", "AP3", "PR"} {
		c.Add(id, core.Options{Super: id == "AP1", CallCacheCapacity: 16})
	}
	c.Inj.Protect("AP1")
	var gen atomic.Int64
	c.Peers["PR"].HostService(services.NewFuncService(
		services.Descriptor{Name: "quote", ResultName: "r"},
		func(cctx context.Context, params map[string]string) ([]string, error) {
			return []string{fmt.Sprintf(`<r gen="%d"/>`, gen.Add(1))}, nil
		}))
	src := fmt.Sprintf(`<C><axml:sc mode="replace" methodName="quote" serviceURL="PR" frequency="%s"/></C>`, window)
	host := func(id p2p.PeerID, doc string) {
		if err := c.Peers[id].HostDocument(doc, src); err != nil {
			panic(err)
		}
	}
	host("AP2", "C1.xml")
	host("AP3", "C2.xml")
	c.ConnectGossip()
	bg := context.Background()
	c.GossipRounds(bg, 10) // converged bootstrap
	c.SnapshotAll()

	var res runResult
	// The workload is three independent transactions; after each commit the
	// snapshot baseline moves forward so the abort-restoration invariant
	// always compares the current transaction against the state it started
	// from, even when noise aborts a later step.
	if res.txn, res.committed = materialize(c.Peers["AP2"], "C1.xml"); !res.committed {
		return res
	}
	c.SnapshotAll()
	c.GossipRounds(bg, 6) // propagate AP2's call advertisement
	if res.txn, res.committed = materialize(c.Peers["AP3"], "C2.xml"); !res.committed {
		return res
	}
	c.SnapshotAll()
	fetches := c.Peers["AP3"].Metrics().Snapshot().CacheFetches

	// The cache owner drops off and the freshness window expires while it is
	// gone; survivors must notice and stop trusting its advertisement.
	c.Inj.Crash("AP2")
	time.Sleep(window + window/2)
	for i := 0; i < 300; i++ {
		if st, ok := c.Members["AP3"].StateOf("AP2"); ok && st == membership.StateDead {
			break
		}
		c.GossipRounds(bg, 1)
	}
	now := time.Now()
	for _, id := range []p2p.PeerID{"AP1", "AP3", "PR"} {
		for _, e := range c.Members[id].CatalogSnapshot() {
			if e.Origin != "AP2" {
				continue
			}
			for _, ad := range e.Calls {
				if !ad.Inflight && now.Sub(time.Unix(0, ad.FetchedUnixNano)) <= time.Duration(ad.WindowNanos) {
					res.coherence = append(res.coherence,
						fmt.Sprintf("%s still holds a usable advertisement of the dead owner AP2", id))
				}
			}
		}
	}

	host("AP3", "C3.xml")
	if res.txn, res.committed = materialize(c.Peers["AP3"], "C3.xml"); !res.committed {
		return res
	}
	if n := gen.Load(); n != 2 {
		res.coherence = append(res.coherence, fmt.Sprintf(
			"provider generation = %d after the window expired, want 2 (1 = stale cache reuse, >2 = lost dedupe)", n))
	}
	if fetches == 0 {
		res.coherence = append(res.coherence, "AP3 never fetched the cached result from the owner before the crash")
	}
	if got := docString(c, "AP3", "C2.xml"); !strings.Contains(got, `gen="1"`) {
		res.coherence = append(res.coherence, "AP3's pre-crash fetch did not carry the owner's generation-1 result: "+got)
	}
	if got := docString(c, "AP3", "C3.xml"); !strings.Contains(got, `gen="2"`) {
		res.coherence = append(res.coherence, "AP3's post-expiry materialization is not the provider's generation-2 result: "+got)
	}
	return res
}

// materialize runs one transaction materializing every embedded call of the
// named document, committing on success and aborting on failure.
func materialize(p *core.Peer, doc string) (txn string, committed bool) {
	txc := p.Begin()
	if _, err := p.Store().MaterializeAll(txc.ID, doc, p); err != nil {
		_ = p.Abort(context.Background(), txc)
		return txc.ID, false
	}
	return txc.ID, p.Commit(context.Background(), txc) == nil
}

// docString renders a peer's document snapshot, empty when absent.
func docString(c *Cluster, id p2p.PeerID, doc string) string {
	d, ok := c.Peers[id].Store().Snapshot(doc)
	if !ok || d.Root() == nil {
		return ""
	}
	return xmldom.MarshalString(d.Root())
}

// FailService wraps a registered service so it does its work and then fails
// with the named fault — the paper's F5 failure at AP5.
func FailService(p *core.Peer, name, faultName string) {
	inner, ok := p.Registry().Get(name)
	if !ok {
		panic("chaos: no such service " + name)
	}
	p.Registry().Register(services.NewFuncService(inner.Descriptor(),
		func(cctx context.Context, params map[string]string) ([]string, error) {
			env, ok := core.EnvFrom(cctx)
			if !ok {
				return nil, fmt.Errorf("chaos: no engine environment")
			}
			if _, err := inner.Invoke(cctx, &services.Request{Txn: env.Txn.ID, Params: params}); err != nil {
				return nil, err
			}
			return nil, &services.Fault{Name: faultName, Msg: "injected service fault"}
		}))
}

// Gate wraps a registered service so it blocks until release is closed.
func Gate(p *core.Peer, name string, release <-chan struct{}) {
	inner, ok := p.Registry().Get(name)
	if !ok {
		panic("chaos: no such service " + name)
	}
	p.Registry().Register(services.NewFuncService(inner.Descriptor(),
		func(cctx context.Context, params map[string]string) ([]string, error) {
			<-release
			env, _ := core.EnvFrom(cctx)
			return inner.Invoke(cctx, &services.Request{Txn: env.Txn.ID, Params: params})
		}))
}

// WaitService drains ch until the named service's result arrives or the
// timeout expires.
func WaitService(ch <-chan string, service string, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		select {
		case got := <-ch:
			if got == service {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// hasProvider reports whether the table currently lists id as a provider of
// the service.
func hasProvider(t *replication.Table, svc string, id p2p.PeerID) bool {
	for _, p := range t.ServiceProviders(svc) {
		if p == id {
			return true
		}
	}
	return false
}

// WaitTrue polls cond until it holds or the timeout expires.
func WaitTrue(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
