package sim

import (
	"context"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/chaos"
	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
)

// F1Row reports one Figure 1 scenario run.
type F1Row struct {
	Mode              string // "abort" or "forward"
	Committed         bool
	AllRestored       bool
	AbortMessages     int64
	TotalMessages     int64
	NodesUndone       int64
	ForwardRecoveries int64
}

// RunF1 reproduces Figure 1: AP1 drives TA over S2@AP2 and S3@AP3;
// AP3 invokes S4@AP4 and S5@AP5; AP5 invokes S6@AP6; AP5 fails processing
// S5. With forward=false the failure aborts the whole transaction (nested
// backward recovery); with forward=true a catch handler at AP3 retries S5
// on a replica AP5b and the transaction commits.
func RunF1(forward bool) F1Row {
	ids := []p2p.PeerID{"AP1", "AP2", "AP3", "AP4", "AP5", "AP6"}
	if forward {
		ids = append(ids, "AP5b")
	}
	c := chaos.NewCluster(chaos.NewInjector(0, nil, nil))
	for _, id := range ids {
		c.Add(id, core.Options{Super: id == "AP1"})
	}
	c.HostEntry("AP2", "S2", "D2.xml", "D2")
	c.HostEntry("AP4", "S4", "D4.xml", "D4")
	c.HostEntry("AP6", "S6", "D6.xml", "D6")
	c.HostComposite("AP5", "S5", "D5.xml", "D5", [][2]string{{"S6", "AP6"}}, "")
	chaos.FailService(c.Peers["AP5"], "S5", "F5")

	handler := ""
	if forward {
		handler = `<axml:catch faultName="F5"><axml:retry times="1"><axml:sc methodName="S5" serviceURL="AP5b"/></axml:retry></axml:catch>`
		c.HostComposite("AP5b", "S5", "D5.xml", "D5", [][2]string{{"S6", "AP6"}}, "")
	}
	c.HostComposite("AP3", "S3", "D3.xml", "D3", [][2]string{{"S4", "AP4"}, {"S5", "AP5"}}, handler)
	c.HostComposite("AP1", "S1", "D1.xml", "D1", [][2]string{{"S2", "AP2"}, {"S3", "AP3"}}, "")
	c.SnapshotAll()

	origin := c.Peers["AP1"]
	txc := origin.Begin()
	q, _ := axml.ParseQuery("Select d/updateResult from d in D1")
	_, err := origin.Exec(context.Background(), txc, axml.NewQuery(q))
	row := F1Row{Mode: "abort"}
	if forward {
		row.Mode = "forward"
	}
	if err != nil {
		_ = origin.Abort(context.Background(), txc)
	} else {
		_ = origin.Commit(context.Background(), txc)
		row.Committed = true
	}

	if row.Committed {
		// Forward recovery: the failed peer's partial work must still have
		// been compensated ("undo only as much as required").
		row.AllRestored = len(c.RestoredViolations("AP5")) == 0
	} else {
		row.AllRestored = len(c.RestoredViolations()) == 0
	}
	total := c.TotalMetrics()
	stats := c.Net.Stats()
	row.AbortMessages = stats.ByKind[p2p.KindAbort]
	row.TotalMessages = stats.Total
	row.NodesUndone = total.NodesUndone
	row.ForwardRecoveries = total.ForwardRecoveries
	return row
}

// F2Row reports one Figure 2 disconnection scenario run.
type F2Row struct {
	Scenario            string
	Chaining            bool
	Recovered           bool // the transaction survived (committed) or aborted cleanly
	Committed           bool
	Redirects           int64
	WorkReused          int64
	NodesLost           int64
	NodesUndone         int64
	Messages            int64
	DisconnectsDetected int64
}

// RunF2 reproduces the Figure 2 disconnection scenarios over the topology
// [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]. scenario ∈ {"a","b","c","d"};
// chaining toggles the active-peer-list mechanism (the paper's proposal vs
// the traditional baseline).
func RunF2(scenario string, chaining bool) F2Row {
	ids := []p2p.PeerID{"AP1", "AP2", "AP3", "AP4", "AP5", "AP6", "AP3b"}
	c := chaos.NewCluster(chaos.NewInjector(0, nil, nil))
	for _, id := range ids {
		c.Add(id, core.Options{Super: id == "AP1", DisableChaining: !chaining})
	}
	ap1, ap2, ap3, ap4, ap6 := c.Peers["AP1"], c.Peers["AP2"], c.Peers["AP3"], c.Peers["AP4"], c.Peers["AP6"]
	c.HostEntry("AP2", "S2w", "D2.xml", "D2")
	c.HostEntry("AP3", "S3w", "D3.xml", "D3")
	c.HostEntry("AP4", "S4w", "D4.xml", "D4")
	c.HostEntry("AP5", "S5", "D5.xml", "D5")
	c.HostEntry("AP6", "S6", "D6.xml", "D6")
	c.HostEntry("AP3b", "S3", "D3b.xml", "D3b") // replica provider of S3
	for _, p := range c.Peers {
		p.Replicas().AddService("S3", "AP3")
		p.Replicas().AddService("S3", "AP3b")
	}

	row := F2Row{Scenario: scenario, Chaining: chaining}
	resultCh := make(chan string, 8)
	ap2.OnResult(func(txn string, resp *core.InvokeResponse) { resultCh <- resp.Service })

	// The transaction starts at AP1 and reaches AP2 (S2w), forming the
	// chain prefix; AP2 then drives the S3/S6 and S4/S5 branches.
	txc := ap1.Begin()
	if _, err := ap1.Call(context.Background(), txc, "AP2", "S2w", nil); err != nil {
		panic(err)
	}
	ctx2, ok := ap2.Manager().Get(txc.ID)
	if !ok {
		panic("sim: AP2 has no context")
	}

	switch scenario {
	case "a":
		// Leaf AP6 disconnects; AP3 detects on invocation and the nested
		// protocol aborts the transaction.
		if _, err := ap2.Call(context.Background(), ctx2, "AP3", "S3w", nil); err != nil {
			panic(err)
		}
		c.Net.Disconnect("AP6")
		ctx3, _ := ap3.Manager().Get(txc.ID)
		if _, err := ap3.Call(context.Background(), ctx3, "AP6", "S6", nil); err == nil {
			panic("sim: expected unreachable")
		}
		_ = ap1.Abort(context.Background(), txc)
	case "b":
		// AP3 invokes S6 asynchronously then dies; AP6 redirects the
		// results to AP2, which forward-recovers S3 on AP3b reusing them.
		release := make(chan struct{})
		chaos.Gate(ap6, "S6", release)
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
		if _, err := ap2.Call(context.Background(), ctx2, "AP3", "S3", nil); err != nil {
			panic(err)
		}
		c.Net.Disconnect("AP3")
		close(release)
		if chaining && chaos.WaitService(resultCh, "S3", 5*time.Second) {
			row.Committed = ap1.Commit(context.Background(), txc) == nil
		} else {
			// Traditional baseline: the redirect never happens, AP2 learns
			// nothing; eventually the application gives up and aborts.
			time.Sleep(20 * time.Millisecond)
			_ = ap1.Abort(context.Background(), txc)
		}
	case "c":
		// AP3 dies mid-processing; AP2's pinger detects and recovers on
		// AP3b, notifying AP3's orphaned descendants.
		hang := make(chan struct{})
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
		if err := ap2.CallAsync(context.Background(), ctx2, "AP3", "S3", nil); err != nil {
			panic(err)
		}
		chaos.WaitTrue(5*time.Second, func() bool { return c.CountEntries("AP6", "D6.xml") == 1 })
		c.Net.Disconnect("AP3")
		pinger := p2p.NewPinger(ap2.Transport(), time.Millisecond, 1, func(id p2p.PeerID) { ap2.OnPeerDown(id) })
		pinger.Watch("AP3")
		pinger.ProbeNow(context.Background())
		if chaining && chaos.WaitService(resultCh, "S3", 5*time.Second) {
			row.Committed = ap1.Commit(context.Background(), txc) == nil
		} else {
			// Traditional: the chain is unknown, recovery cannot redirect;
			// the origin gives up and aborts.
			time.Sleep(20 * time.Millisecond)
			_ = ap1.Abort(context.Background(), txc)
		}
		close(hang)
	case "d":
		// AP3 streams to its sibling AP4; silence reveals the death, AP4
		// notifies parent and children via the chain.
		ap3.HostService(services.NewFuncService(
			services.Descriptor{Name: "S3", ResultName: "updateResult", TargetDocument: "D3.xml"},
			func(cctx context.Context, params map[string]string) ([]string, error) {
				env, _ := core.EnvFrom(cctx)
				if _, err := env.Peer.Call(context.Background(), env.Txn, "AP3", "S3w", nil); err != nil {
					return nil, err
				}
				return env.Peer.Call(context.Background(), env.Txn, "AP6", "S6", nil)
			}))
		if _, err := ap2.Call(context.Background(), ctx2, "AP3", "S3", nil); err != nil {
			panic(err)
		}
		if _, err := ap2.Call(context.Background(), ctx2, "AP4", "S4w", nil); err != nil {
			panic(err)
		}
		silence := make(chan struct{}, 1)
		watcher := services.NewStreamWatcher(40*time.Millisecond, func() { silence <- struct{}{} })
		ap4.OnStream(func(b *core.StreamBatch) { watcher.Observe() })
		watcher.Start()
		for seq := 0; seq < 3; seq++ {
			_ = ap3.StreamTo("AP4", &core.StreamBatch{Txn: txc.ID, Service: "S3", Seq: seq})
		}
		c.Net.Disconnect("AP3")
		<-silence
		ap4.NotifySiblingDown(txc.ID, "AP3")
		// With a replica available the parent forward-recovers; commit.
		if chaining && chaos.WaitService(resultCh, "S3", 5*time.Second) {
			row.Committed = ap1.Commit(context.Background(), txc) == nil
		} else {
			time.Sleep(20 * time.Millisecond)
			_ = ap1.Abort(context.Background(), txc)
		}
		watcher.Stop()
	default:
		panic("sim: unknown F2 scenario " + scenario)
	}

	// Settle asynchronous cleanups.
	time.Sleep(5 * time.Millisecond)

	total := c.TotalMetrics()
	row.Recovered = row.Committed || txc.Status() != core.StatusActive
	row.Redirects = ap6.Metrics().Redirects.Load() + ap2.Metrics().Redirects.Load()
	row.WorkReused = total.WorkReused
	row.NodesLost = total.NodesLost
	row.NodesUndone = total.NodesUndone
	row.Messages = c.Net.Stats().Total
	row.DisconnectsDetected = total.DisconnectsDetected
	return row
}
