// Package sim builds synthetic AXML deployments and workloads for the
// experiment suite: random invocation trees (the generalization of the
// paper's Figures 1 and 2), operation-mix workloads over ATP-style
// documents, failure and disconnection schedules, and metric aggregation.
//
// The paper has no quantitative evaluation of its own (implementation was
// future work), so this package realizes the evaluation its protocols call
// for; EXPERIMENTS.md maps each experiment to the protocol section it
// exercises.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"axmltx/internal/axml"
	"axmltx/internal/chaos"
	"axmltx/internal/core"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
)

// TreeSpec describes a synthetic invocation tree: the origin peer invokes
// Fanout services, each hosted on its own peer, down to the given Depth
// (depth 1 = origin plus one level of leaves). Every peer performs local
// work (WorkEntries inserts of PayloadNodes-node entries) and, when
// internal, invokes its children — all through AXML lazy materialization of
// embedded service calls, exactly like the Figure 1 construction.
type TreeSpec struct {
	Depth  int
	Fanout int
	// WorkEntries is the number of <entry> elements each peer's local work
	// inserts (default 1).
	WorkEntries int
	// PayloadNodes scales each entry's subtree size (default 1 extra node).
	PayloadNodes int
	// SuperRatio is the probability a peer is a super peer (the origin
	// always is). Uses Seed.
	SuperRatio float64
	Seed       int64
	// WithHandlers attaches <axml:catchAll><axml:retry/></axml:catchAll>
	// to every child service call and provisions a replica peer for every
	// service, enabling forward recovery.
	WithHandlers bool
	// PeerIndependent and DisableChaining set the corresponding peer
	// options everywhere.
	PeerIndependent bool
	DisableChaining bool
	// TraceSink, when set, receives every span of every peer in the
	// deployment (the transaction ID keys them to one trace).
	TraceSink obs.Sink
	// MetricsRegistry, when set, collects every peer's protocol counters
	// and latency histograms under the shared axml_* schema.
	MetricsRegistry *obs.Registry
}

// TreeCluster is a built tree deployment. Its chaos.Cluster holds the
// network, every peer (replicas included) with its WAL, and the snapshot of
// every work document the atomicity checks compare against.
type TreeCluster struct {
	*chaos.Cluster
	Spec   TreeSpec
	Origin *core.Peer
	Order  []p2p.PeerID // main peers, breadth-first; Order[0] is the origin
	Parent map[p2p.PeerID]p2p.PeerID
	Leaves []p2p.PeerID
	// Fail holds the per-peer failure flags of the local work services.
	Fail map[p2p.PeerID]*atomic.Bool
}

// BuildTree constructs the deployment on a fresh in-memory network, behind
// an injector with no rules.
func BuildTree(spec TreeSpec) *TreeCluster {
	return buildTree(spec, chaos.NewInjector(spec.Seed, nil, nil))
}

// buildTree constructs the deployment with every peer's traffic routed
// through inj.
func buildTree(spec TreeSpec, inj *chaos.Injector) *TreeCluster {
	if spec.Fanout < 1 {
		spec.Fanout = 1
	}
	if spec.Depth < 1 {
		spec.Depth = 1
	}
	if spec.WorkEntries < 1 {
		spec.WorkEntries = 1
	}
	if spec.PayloadNodes < 1 {
		spec.PayloadNodes = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	tc := &TreeCluster{
		Cluster: chaos.NewCluster(inj),
		Spec:    spec,
		Parent:  make(map[p2p.PeerID]p2p.PeerID),
		Fail:    make(map[p2p.PeerID]*atomic.Bool),
	}

	// Enumerate the tree breadth-first: peer IDs P0 (origin), P1, ...
	type nodeInfo struct {
		id       p2p.PeerID
		depth    int
		children []p2p.PeerID
	}
	var nodes []*nodeInfo
	next := 0
	mk := func(depth int) *nodeInfo {
		n := &nodeInfo{id: p2p.PeerID(fmt.Sprintf("P%d", next)), depth: depth}
		next++
		nodes = append(nodes, n)
		return n
	}
	root := mk(0)
	frontier := []*nodeInfo{root}
	for d := 1; d <= spec.Depth; d++ {
		var nextFrontier []*nodeInfo
		for _, parent := range frontier {
			for f := 0; f < spec.Fanout; f++ {
				child := mk(d)
				parent.children = append(parent.children, child.id)
				tc.Parent[child.id] = parent.id
				nextFrontier = append(nextFrontier, child)
			}
		}
		frontier = nextFrontier
	}

	for _, n := range nodes {
		super := n.id == root.id || rng.Float64() < spec.SuperRatio
		tc.buildPeer(n.id, n.children, super, false)
		if spec.WithHandlers {
			tc.buildPeer(n.id+"r", n.children, super, true)
		}
		if len(n.children) == 0 {
			tc.Leaves = append(tc.Leaves, n.id)
		}
		tc.Order = append(tc.Order, n.id)
	}
	tc.Origin = tc.Peers[root.id]

	// Announce every service provider (original first, replica second) in
	// every peer's replication table.
	for _, n := range nodes {
		for _, p := range tc.Peers {
			p.Replicas().AddService(serviceName(n.id), n.id)
			p.Replicas().AddService(workName(n.id), n.id)
			if spec.WithHandlers {
				p.Replicas().AddService(serviceName(n.id), n.id+"r")
				p.Replicas().AddService(workName(n.id), n.id+"r")
			}
		}
	}
	return tc
}

func serviceName(id p2p.PeerID) string { return "S" + strings.TrimPrefix(string(id), "P") }
func workName(id p2p.PeerID) string    { return "W" + strings.TrimPrefix(string(id), "P") }
func workDoc(id p2p.PeerID) string     { return "Work" + strings.TrimPrefix(string(id), "P") + ".xml" }

// buildPeer assembles one peer: its work document + work service, its
// composition document embedding the local work call and the child service
// calls, and the query service over it. A replica peer (suffix "r") hosts
// the same services under the same names, doing its local work locally but
// invoking the same children.
func (tc *TreeCluster) buildPeer(id p2p.PeerID, children []p2p.PeerID, super, isReplica bool) {
	peer := tc.Add(id, core.Options{
		Super:           super,
		PeerIndependent: tc.Spec.PeerIndependent,
		DisableChaining: tc.Spec.DisableChaining,
		TraceSink:       tc.Spec.TraceSink,
		MetricsRegistry: tc.Spec.MetricsRegistry,
	})

	base := p2p.PeerID(strings.TrimSuffix(string(id), "r"))
	svc, work := serviceName(base), workName(base)
	doc := workDoc(id)
	workRoot := strings.TrimSuffix(doc, ".xml")
	if err := peer.HostDocument(doc, fmt.Sprintf("<%s><log/></%s>", workRoot, workRoot)); err != nil {
		panic(err)
	}

	// The local work service: WorkEntries inserts of a payload subtree.
	payload := "<entry>" + strings.Repeat("<x/>", tc.Spec.PayloadNodes-1) + "</entry>"
	fail := &atomic.Bool{}
	if !isReplica {
		tc.Fail[id] = fail
	}
	entries := tc.Spec.WorkEntries
	peer.HostService(services.NewFuncService(
		services.Descriptor{Name: work, ResultName: "updateResult", TargetDocument: doc},
		func(cctx context.Context, params map[string]string) ([]string, error) {
			env, ok := core.EnvFrom(cctx)
			if !ok {
				return nil, fmt.Errorf("sim: no engine environment")
			}
			loc, err := axml.ParseQuery(fmt.Sprintf("Select l from l in %s/log", workRoot))
			if err != nil {
				return nil, err
			}
			total := 0
			for i := 0; i < entries; i++ {
				res, err := env.Peer.Store().Apply(env.Txn.ID, axml.NewInsert(loc, payload), env.Peer, axml.Lazy)
				if err != nil {
					return nil, err
				}
				total += res.AffectedNodes
			}
			if fail.Load() {
				return nil, &services.Fault{Name: "work-fault", Msg: string(id)}
			}
			return []string{fmt.Sprintf(`<updateResult affected="%d"/>`, total)}, nil
		}))

	// The composition document: local work call plus child service calls.
	var b strings.Builder
	compDoc := "Comp" + strings.TrimPrefix(string(id), "P") + ".xml"
	compRoot := strings.TrimSuffix(compDoc, ".xml")
	fmt.Fprintf(&b, "<%s>", compRoot)
	fmt.Fprintf(&b, `<axml:sc mode="replace" methodName=%q serviceURL=%q/>`, work, id)
	for _, child := range children {
		fmt.Fprintf(&b, `<axml:sc mode="replace" methodName=%q serviceURL=%q>`, serviceName(child), child)
		if tc.Spec.WithHandlers {
			b.WriteString(`<axml:catchAll><axml:retry times="2"/></axml:catchAll>`)
		}
		b.WriteString(`</axml:sc>`)
	}
	fmt.Fprintf(&b, "</%s>", compRoot)
	if err := peer.HostDocument(compDoc, b.String()); err != nil {
		panic(err)
	}
	peer.HostQueryService(services.Descriptor{
		Name: svc, ResultName: "updateResult", TargetDocument: compDoc,
	}, fmt.Sprintf("Select d/updateResult from d in %s", compRoot))

	tc.Snapshot(id, doc)
}

// Run executes one transaction: the origin queries its composition
// document, which drives the whole tree, then commits on success or aborts
// on failure. It returns the origin-side error (nil on commit).
func (tc *TreeCluster) Run() error {
	txc, err := tc.RunNoCommit()
	if err != nil {
		_ = tc.Origin.Abort(context.Background(), txc)
		return err
	}
	return tc.Origin.Commit(context.Background(), txc)
}

// RunNoCommit executes the tree but leaves the transaction open, returning
// the context (for disconnection experiments that interfere mid-flight).
func (tc *TreeCluster) RunNoCommit() (*core.Context, error) {
	txc := tc.Origin.Begin()
	q, err := axml.ParseQuery(fmt.Sprintf("Select d/updateResult from d in Comp%s",
		strings.TrimPrefix(string(tc.Order[0]), "P")))
	if err != nil {
		panic(err)
	}
	_, err = tc.Origin.Exec(context.Background(), txc, axml.NewQuery(q))
	return txc, err
}

// WorkEntriesCommitted counts live <entry> nodes across the work documents
// of every peer, replicas included.
func (tc *TreeCluster) WorkEntriesCommitted() int {
	total := 0
	for id := range tc.Peers {
		total += tc.CountEntries(id, workDoc(id))
	}
	return total
}

// PeerCount returns the number of main (non-replica) peers.
func (tc *TreeCluster) PeerCount() int { return len(tc.Order) }
