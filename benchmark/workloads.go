package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/query"
	"axmltx/internal/services"
	"axmltx/internal/xmldom"
)

// opOut is what one operation reports to the runner.
type opOut struct {
	ok   bool
	txn  string // "" for operations outside any transaction
	peer string // the peer the client called
}

// workload is one named set of inputs and the cluster they run on.
type workload interface {
	// draw pre-draws every input from the seed.
	draw(cfg *config)
	// build creates the cluster under dir and hosts documents and services.
	build(cfg *config, dir string) (*cluster, error)
	// workers is the number of closed-loop clients, or the open loop's cap
	// on operations in flight.
	workers() int
	// closedOps is the cycle worker w draws its closed-loop (and warm-up)
	// operations from.
	closedOps(w int) []genOp
	// openOps is the open loop's arrival schedule, nil for a closed loop.
	openOps() []genOp
	// op runs one operation on worker w. begin is the instant its settle
	// time counts from.
	op(w int, o genOp, begin int64) opOut
	// check runs the workload's correctness checks after the window and
	// returns one line per failure.
	check() []string
	// probe names the documents and queries the replay probes use.
	probe() probeSpec
	// hash identifies the drawn inputs.
	hash() uint64
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tree_commit":
		return &treeWorkload{name: name}, nil
	case "tree_abort":
		return &treeWorkload{name: name, abort: true}, nil
	case "local_rw":
		return &localWorkload{}, nil
	case "open_mix":
		return &openWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"tree_commit", "tree_abort", "local_rw", "open_mix"}

var bg = context.Background()

// timed runs fn, recording it as a client-side span of the named public
// call when tracing is on.
func (c *cluster) timed(name, peer string, txn *string, fn func()) {
	if !c.rec.on.Load() {
		fn()
		return
	}
	start := now()
	fn()
	c.rec.add(span{Name: name, Peer: peer, Txn: *txn, Start: start, End: now(), G: goid()})
}

// ---------------------------------------------------------------------------
// tree_commit / tree_abort: the paper's Fig. 1 invocation tree.
//
//	AP1 → { S2@AP2, S3@AP3 → { S4@AP4, S5@AP5 → S6@AP6 } }
//
// built as internal/sim/figures.go builds it — composition documents whose
// embedded axml:sc calls a lazy query at AP1 drives — but over loopback TCP
// and on-disk logs. Two lanes (suffix a, b) of disjoint documents and
// services share the six peers, one closed-loop client each.

var treePeers = []p2p.PeerID{"AP1", "AP2", "AP3", "AP4", "AP5", "AP6"}

const treeLanes = 2

// slotXML is the 8-element slot every leaf service replaces, so documents
// keep their size however long the run.
var slotXML = func() string {
	var b strings.Builder
	b.WriteString("<slot>")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, `<e n="%d"/>`, i)
	}
	b.WriteString("</slot>")
	return b.String()
}()

type treeWorkload struct {
	name    string
	abort   bool
	c       *cluster
	origin  *node
	queries [treeLanes]*query.Query
	before  map[string]string // peer/doc → DocumentString before the first operation
	mu      sync.Mutex
	acked   []string // transaction IDs the client saw complete, oldest first
}

func (w *treeWorkload) draw(*config)          {}
func (w *treeWorkload) workers() int          { return treeLanes }
func (w *treeWorkload) closedOps(int) []genOp { return []genOp{{kind: opTree}} }
func (w *treeWorkload) openOps() []genOp      { return nil }
func (w *treeWorkload) hash() uint64          { return scheduleHash(w.name) }

func (w *treeWorkload) build(cfg *config, dir string) (*cluster, error) {
	c := newCluster(dir)
	err := c.addTCPPeers(treePeers, true, func(id p2p.PeerID) core.Options {
		return core.Options{Super: id == "AP1"}
	})
	if err != nil {
		return nil, err
	}
	w.c, w.origin = c, c.node("AP1")
	for lane := 0; lane < treeLanes; lane++ {
		l := string(rune('a' + lane))
		if err := w.hostLane(l); err != nil {
			c.close()
			return nil, err
		}
		q, err := axml.ParseQuery("Select d/updateResult from d in D1" + l)
		if err != nil {
			c.close()
			return nil, err
		}
		w.queries[lane] = q
	}
	w.before = snapshotAll(c)
	return c, nil
}

func (w *treeWorkload) hostLane(l string) error {
	for _, leaf := range []string{"2", "4", "6"} {
		if err := w.hostLeaf(p2p.PeerID("AP"+leaf), "S"+leaf+l, "D"+leaf+l); err != nil {
			return err
		}
	}
	if err := w.hostComposite("AP5", "S5"+l, "D5"+l, [][2]string{{"S6" + l, "AP6"}}); err != nil {
		return err
	}
	if w.abort {
		failAfter(w.c.node("AP5").peer, "S5"+l, "F5")
	}
	if err := w.hostComposite("AP3", "S3"+l, "D3"+l, [][2]string{{"S4" + l, "AP4"}, {"S5" + l, "AP5"}}); err != nil {
		return err
	}
	return w.hostComposite("AP1", "S1"+l, "D1"+l, [][2]string{{"S2" + l, "AP2"}, {"S3" + l, "AP3"}})
}

// hostLeaf gives a peer a work document and the update service replacing
// its slot.
func (w *treeWorkload) hostLeaf(id p2p.PeerID, service, root string) error {
	p := w.c.node(id).peer
	if err := p.HostDocument(root+".xml", "<"+root+">"+slotXML+"</"+root+">"); err != nil {
		return err
	}
	p.HostUpdateService(services.Descriptor{
		Name: service, ResultName: "updateResult", TargetDocument: root + ".xml",
	}, `<action type="replace"><data>`+slotXML+`</data><location>Select s from s in `+root+`/slot;</location></action>`)
	return nil
}

// hostComposite gives a peer a composition document embedding the given
// (service, provider) calls and a query service over it.
func (w *treeWorkload) hostComposite(id p2p.PeerID, service, root string, calls [][2]string) error {
	var b strings.Builder
	b.WriteString("<" + root + ">")
	for _, c := range calls {
		fmt.Fprintf(&b, `<axml:sc mode="replace" methodName=%q serviceURL=%q></axml:sc>`, c[0], c[1])
	}
	b.WriteString("</" + root + ">")
	p := w.c.node(id).peer
	if err := p.HostDocument(root+".xml", b.String()); err != nil {
		return err
	}
	p.HostQueryService(services.Descriptor{
		Name: service, ResultName: "updateResult", TargetDocument: root + ".xml",
	}, "Select d/updateResult from d in "+root)
	return nil
}

// failAfter wraps a service so it does its work and then returns the named
// fault: Fig. 1's failure point, S5 failing after S6 has completed.
func failAfter(p *core.Peer, name, fault string) {
	inner, ok := p.Registry().Get(name)
	if !ok {
		panic("benchmark: no service " + name)
	}
	p.Registry().Register(services.NewFuncService(inner.Descriptor(),
		func(cctx context.Context, params map[string]string) ([]string, error) {
			env, ok := core.EnvFrom(cctx)
			if !ok {
				return nil, fmt.Errorf("benchmark: no engine environment")
			}
			if _, err := inner.Invoke(cctx, &services.Request{Txn: env.Txn.ID, Params: params}); err != nil {
				return nil, err
			}
			return nil, &services.Fault{Name: fault, Msg: "injected"}
		}))
}

// treeLeaves is how many updateResult elements one committed Fig. 1
// transaction must return: one per embedded leaf call (S2, S4, S6).
const treeLeaves = 3

func (w *treeWorkload) op(lane int, _ genOp, begin int64) opOut {
	c, p, id := w.c, w.origin.peer, string(w.origin.id)
	out := opOut{peer: id}
	var txc *core.Context
	c.timed("core.begin", id, &out.txn, func() {
		txc = p.Begin()
		out.txn = txc.ID
	})
	var res *axml.Result
	var err error
	c.timed("core.exec", id, &out.txn, func() {
		res, err = p.Exec(bg, txc, axml.NewQuery(w.queries[lane]))
	})
	c.settle.expect(txc.ID, begin, len(treePeers))
	if w.abort || err != nil {
		out.ok = w.abort && err != nil && strings.Contains(err.Error(), "F5")
		c.timed("core.abort", id, &out.txn, func() {
			if aerr := p.Abort(bg, txc); aerr != nil {
				out.ok = false
			}
		})
	} else {
		out.ok = len(res.Query.Items) == treeLeaves
		c.timed("core.commit", id, &out.txn, func() {
			if cerr := p.Commit(bg, txc); cerr != nil {
				out.ok = false
			}
		})
	}
	w.mu.Lock()
	w.acked = append(w.acked, txc.ID)
	w.mu.Unlock()
	return out
}

func (w *treeWorkload) check() []string {
	if !w.abort {
		return nil
	}
	var fails []string
	// Relaxed atomicity, checked: after any number of aborted transactions
	// every document at every peer is byte-identical to its pre-run state.
	for key, now := range snapshotAll(w.c) {
		if now != w.before[key] {
			fails = append(fails, "tree_abort: document "+key+" differs from its pre-run snapshot")
		}
	}
	for _, txn := range lastN(w.acked, 50) {
		for _, n := range w.c.nodes {
			if err := core.CheckCompensationComplete(n.log, txn); err != nil {
				fails = append(fails, fmt.Sprintf("tree_abort: %s at %s: %v", txn, n.id, err))
			}
			if err := core.CheckReverseCompensationOrder(n.log, txn); err != nil {
				fails = append(fails, fmt.Sprintf("tree_abort: %s at %s: %v", txn, n.id, err))
			}
		}
	}
	return fails
}

func (w *treeWorkload) probe() probeSpec {
	return probeSpec{node: w.origin, doc: "D1a.xml", queries: []string{"Select d/updateResult from d in D1a"}}
}

// snapshotAll serializes every document of every peer.
func snapshotAll(c *cluster) map[string]string {
	out := make(map[string]string)
	for _, n := range c.nodes {
		for _, name := range n.peer.Store().Names() {
			if snap, ok := n.peer.Store().Snapshot(name); ok {
				out[string(n.id)+"/"+name] = xmldom.DocumentString(snap)
			}
		}
	}
	return out
}

func lastN(s []string, n int) []string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// ---------------------------------------------------------------------------
// local_rw: one peer, no network, two large documents, reads beside writes.

const (
	localClients      = 2
	localCitizenships = 50
	scheduleCycle     = 8192
)

type localWorkload struct {
	c       *cluster
	n       *node
	players int
	sched   [localClients][]genOp
	mu      sync.Mutex
	written [localClients]map[int32]int32 // key → last value the client wrote
	order   [localClients][]int32         // keys in the order last written
}

// atpDoc builds an ATPList-style document: per player a rank, a name, one
// of localCitizenships citizenships and a points element.
func atpDoc(players int) string {
	var b strings.Builder
	b.WriteString(`<ATPList date="18042005">`)
	for i := 0; i < players; i++ {
		fmt.Fprintf(&b, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name>`+
			`<citizenship>C%d</citizenship><points>%d</points></player>`, i+1, i, i, i%localCitizenships, 100+i)
	}
	b.WriteString(`</ATPList>`)
	return b.String()
}

func (w *localWorkload) draw(cfg *config) {
	w.players = cfg.players
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := range w.sched {
		w.sched[i] = closedSchedule(rng, scheduleCycle, map[uint8]int{opRead: 4, opWrite: 1}, func(kind uint8) int32 {
			if kind == opRead {
				return int32(rng.Intn(localCitizenships))
			}
			return int32(rng.Intn(cfg.players))
		})
		w.written[i] = make(map[int32]int32)
	}
}

func (w *localWorkload) workers() int            { return localClients }
func (w *localWorkload) closedOps(i int) []genOp { return w.sched[i] }
func (w *localWorkload) openOps() []genOp        { return nil }
func (w *localWorkload) hash() uint64            { return scheduleHash("local_rw", w.sched[0], w.sched[1]) }

func (w *localWorkload) build(cfg *config, dir string) (*cluster, error) {
	c := newCluster(dir)
	n, err := c.addPeer(p2p.NewNetwork(0).Join("P1"), true, core.Options{})
	if err != nil {
		return nil, err
	}
	src := atpDoc(cfg.players)
	for i := 0; i < localClients; i++ {
		if err := n.peer.HostDocument(fmt.Sprintf("ATP%d.xml", i), src); err != nil {
			c.close()
			return nil, err
		}
	}
	w.c, w.n = c, n
	return c, nil
}

func localReadQuery(doc int, citizenship int32) string {
	return fmt.Sprintf("Select p/name/lastname, p/points from p in ATP%d//player where p/citizenship = C%d", doc, citizenship)
}

func localPointsQuery(doc int, player int32) string {
	return fmt.Sprintf("Select p/points from p in ATP%d//player where p/name/lastname = L%d", doc, player)
}

func (w *localWorkload) op(client int, o genOp, begin int64) opOut {
	c, p, id := w.c, w.n.peer, string(w.n.id)
	out := opOut{peer: id}
	var txc *core.Context
	c.timed("core.begin", id, &out.txn, func() {
		txc = p.Begin()
		out.txn = txc.ID
	})
	var err error
	c.timed("core.exec", id, &out.txn, func() {
		var q *query.Query
		var res *axml.Result
		if o.kind == opRead {
			if q, err = axml.ParseQuery(localReadQuery(client, o.key)); err != nil {
				return
			}
			if res, err = p.Exec(bg, txc, axml.NewQuery(q)); err == nil {
				// Two selected elements per player of the citizenship.
				out.ok = len(res.Query.Items) == 2*rowsFor(w.players, int(o.key))
			}
			return
		}
		if q, err = axml.ParseQuery(localPointsQuery(client, o.key)); err != nil {
			return
		}
		if res, err = p.Exec(bg, txc, axml.NewReplace(q, fmt.Sprintf("<points>%d</points>", o.val))); err == nil {
			out.ok = len(res.InsertedIDs) == 1
		}
	})
	c.settle.expect(txc.ID, begin, 1)
	if err != nil {
		out.ok = false
		_ = p.Abort(bg, txc)
		return out
	}
	c.timed("core.commit", id, &out.txn, func() {
		if cerr := p.Commit(bg, txc); cerr != nil {
			out.ok = false
		}
	})
	if o.kind == opWrite && out.ok {
		w.mu.Lock()
		w.written[client][o.key] = o.val
		w.order[client] = append(w.order[client], o.key)
		w.mu.Unlock()
	}
	return out
}

// rowsFor is how many of players players carry citizenship c.
func rowsFor(players, c int) int {
	n := players / localCitizenships
	if c < players%localCitizenships {
		n++
	}
	return n
}

// check re-reads the points of the most recently written players.
func (w *localWorkload) check() []string {
	var fails []string
	ev := w.n.peer.Store().Evaluator()
	for client := 0; client < localClients; client++ {
		snap, ok := w.n.peer.Store().Snapshot(fmt.Sprintf("ATP%d.xml", client))
		if !ok {
			return []string{"local_rw: document missing"}
		}
		seen := make(map[int32]bool)
		keys := w.order[client]
		for i := len(keys) - 1; i >= 0 && len(seen) < 50; i-- {
			key := keys[i]
			if seen[key] {
				continue
			}
			seen[key] = true
			res, err := ev.Eval(snap, query.MustParse(localPointsQuery(client, key)))
			want := fmt.Sprint(w.written[client][key])
			if err != nil || len(res.Items) != 1 || res.Items[0].Value() != want {
				fails = append(fails, fmt.Sprintf("local_rw: ATP%d player L%d: points not the last written %s", client, key, want))
			}
		}
	}
	return fails
}

func (w *localWorkload) probe() probeSpec {
	return probeSpec{node: w.n, doc: "ATP0.xml", queries: []string{localReadQuery(0, 7), localPointsQuery(0, 11)}}
}

// ---------------------------------------------------------------------------
// open_mix: owner + two application peers over TCP, in-memory logs, call
// cache, sharded document; open loop.

const (
	openPlayers   = 1000 // players in the owner's ATP document
	openFragments = 32   // fragments of League.xml
	openPortals   = 256  // portal documents per application peer: 4× the cache
	openCache     = 64
	openZipfS     = 1.1
)

type openWorkload struct {
	c           *cluster
	owner       *node
	apps        []*node
	warm        [][]genOp
	sched       []genOp
	league      string // DocumentString of League.xml before sharding
	leagueNodes int
	mu          sync.Mutex
	assembled   [64]*xmldom.Document // ring of the latest assemblies
	assemblies  int
	lastUpdate  map[int32]int32
	updates     []int32
	metrics0    []core.MetricsSnapshot
}

func (w *openWorkload) draw(cfg *config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, openZipfS, 1, openPortals-1)
	parts := map[uint8]int{opRead: 12, opAssemble: 5, opUpdate: 3}
	key := func(uint8) int32 { return int32(zipf.Uint64()) }
	w.warm = make([][]genOp, w.workers())
	for i := range w.warm {
		w.warm[i] = closedSchedule(rng, scheduleCycle, parts, key)
	}
	if cfg.rate > 0 {
		w.sched = openSchedule(rng, cfg.rate, int64(cfg.seconds*1e9), parts, key)
	}
	w.lastUpdate = make(map[int32]int32)
}

// workers is the open loop's in-flight cap, one per application peer, so a
// peer runs one client operation at a time.
func (w *openWorkload) workers() int            { return 2 }
func (w *openWorkload) closedOps(i int) []genOp { return w.warm[i] }
func (w *openWorkload) openOps() []genOp        { return w.sched }
func (w *openWorkload) hash() uint64            { return scheduleHash("open_mix", w.sched) }

func leagueDoc(frags int) string {
	var b strings.Builder
	b.WriteString("<league>")
	for i := 0; i < frags; i++ {
		fmt.Fprintf(&b, "<player><name>P%d</name><rank>%d</rank><points>%d</points></player>", i, i+1, 1000*(i+1))
	}
	b.WriteString("<meta/></league>")
	return b.String()
}

func (w *openWorkload) build(cfg *config, dir string) (*cluster, error) {
	c := newCluster(dir)
	ids := []p2p.PeerID{"OR", "A1", "A2"}
	err := c.addTCPPeers(ids, false, func(id p2p.PeerID) core.Options {
		if id == "OR" {
			return core.Options{}
		}
		return core.Options{CallCacheCapacity: openCache, CacheTTL: time.Hour}
	})
	if err != nil {
		return nil, err
	}
	w.c, w.owner, w.apps = c, c.node("OR"), []*node{c.node("A1"), c.node("A2")}
	if err := w.host(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (w *openWorkload) host() error {
	or := w.owner.peer
	if err := or.HostDocument("ATP.xml", atpDoc(openPlayers)); err != nil {
		return err
	}
	or.HostQueryService(services.Descriptor{Name: "getPoints", ResultName: "points", TargetDocument: "ATP.xml"},
		"Select p/points from p in ATP//player where p/name/lastname = $name")
	or.HostUpdateService(services.Descriptor{Name: "setPoints", ResultName: "updateResult", TargetDocument: "ATP.xml"},
		`<action type="replace"><data><points>$value</points></data>`+
			`<location>Select p/points from p in ATP//player where p/name/lastname = $name;</location></action>`)
	if err := or.HostDocument("League.xml", leagueDoc(openFragments)); err != nil {
		return err
	}
	snap, _ := or.Store().Snapshot("League.xml")
	w.league, w.leagueNodes = xmldom.DocumentString(snap), snap.NodeCount()
	if err := or.ShardHostedDocument("League.xml", 0); err != nil {
		return err
	}
	fragIDs := []string{string(axml.SpineFragmentID("League.xml"))}
	for _, f := range or.Store().Fragments() {
		fragIDs = append(fragIDs, string(f.ID))
	}
	if len(fragIDs) != openFragments+1 {
		return fmt.Errorf("open_mix: League.xml split into %d fragments, want %d", len(fragIDs)-1, openFragments)
	}
	for _, app := range w.apps {
		for _, id := range fragIDs {
			app.peer.Replicas().AddFragment(id, w.owner.id)
		}
		for k := 0; k < openPortals; k++ {
			root := fmt.Sprintf("P%03d", k)
			src := fmt.Sprintf(`<%s><axml:sc mode="replace" methodName="getPoints" serviceURL="OR">`+
				`<axml:params><axml:param name="name"><axml:value>L%d</axml:value></axml:param></axml:params>`+
				`</axml:sc></%s>`, root, k, root)
			if err := app.peer.HostDocument(root+".xml", src); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *openWorkload) op(worker int, o genOp, begin int64) opOut {
	c, app := w.c, w.apps[worker]
	p, id := app.peer, string(app.id)
	out := opOut{peer: id}
	if o.kind == opAssemble {
		var doc *xmldom.Document
		var err error
		c.timed("core.assemble", id, &out.txn, func() {
			doc, err = p.AssembleSharded(bg, "League.xml")
		})
		// Every assembly is counted here; the most recent ones are kept
		// and compared byte for byte after the window. Keeping them all
		// would grow the heap, and with it the collector's share of the
		// two cores, through the run.
		if out.ok = err == nil && doc.NodeCount() == w.leagueNodes; out.ok {
			w.mu.Lock()
			w.assembled[w.assemblies%len(w.assembled)] = doc
			w.assemblies++
			w.mu.Unlock()
		}
		return out
	}
	var txc *core.Context
	c.timed("core.begin", id, &out.txn, func() {
		txc = p.Begin()
		out.txn = txc.ID
	})
	var err error
	if o.kind == opRead {
		c.timed("core.exec", id, &out.txn, func() {
			var q *query.Query
			if q, err = axml.ParseQuery(fmt.Sprintf("Select d/points from d in P%03d", o.key)); err != nil {
				return
			}
			var res *axml.Result
			if res, err = p.Exec(bg, txc, axml.NewQuery(q)); err == nil {
				out.ok = len(res.Query.Items) == 1
			}
		})
	} else {
		c.timed("core.call", id, &out.txn, func() {
			var frags []string
			frags, err = p.Call(bg, txc, w.owner.id, "setPoints",
				map[string]string{"name": fmt.Sprintf("L%d", o.key), "value": fmt.Sprint(o.val)})
			out.ok = err == nil && len(frags) == 1
		})
		if out.ok {
			// Recorded before Commit: the owner holds its document lock
			// until this transaction's commit arrives, so a later update of
			// the same key is also recorded later.
			w.mu.Lock()
			w.lastUpdate[o.key] = o.val
			w.updates = append(w.updates, o.key)
			w.mu.Unlock()
		}
	}
	// The origin plus every peer it invoked must reach a terminal record;
	// a cache hit invokes nobody.
	participants := map[p2p.PeerID]bool{app.id: true}
	for _, child := range txc.Children() {
		participants[child.Peer] = true
	}
	c.settle.expect(txc.ID, begin, len(participants))
	if err != nil {
		out.ok = false
		_ = p.Abort(bg, txc)
		return out
	}
	c.timed("core.commit", id, &out.txn, func() {
		if cerr := p.Commit(bg, txc); cerr != nil {
			out.ok = false
		}
	})
	return out
}

func (w *openWorkload) check() []string {
	var fails []string
	for _, doc := range w.assembled {
		if doc != nil && xmldom.DocumentString(doc) != w.league {
			fails = append(fails, "open_mix: an assembly differs from the owner's League.xml")
		}
	}
	var hits, misses int64
	for _, app := range w.apps {
		m := app.peer.Metrics().Snapshot()
		hits += m.CacheHits
		misses += m.CacheMisses
	}
	if hits == 0 || misses == 0 {
		fails = append(fails, fmt.Sprintf("open_mix: cache hits %d, misses %d: both must be above zero", hits, misses))
	}
	// Re-read the most recently updated players at the owner.
	snap, ok := w.owner.peer.Store().Snapshot("ATP.xml")
	if !ok {
		return append(fails, "open_mix: ATP.xml missing at the owner")
	}
	ev := w.owner.peer.Store().Evaluator()
	seen := make(map[int32]bool)
	for i := len(w.updates) - 1; i >= 0 && len(seen) < 20; i-- {
		key := w.updates[i]
		if seen[key] {
			continue
		}
		seen[key] = true
		res, err := ev.Eval(snap, query.MustParse(fmt.Sprintf("Select p/points from p in ATP//player where p/name/lastname = L%d", key)))
		if err != nil || len(res.Items) != 1 || res.Items[0].Value() != fmt.Sprint(w.lastUpdate[key]) {
			fails = append(fails, fmt.Sprintf("open_mix: player L%d: points not the last value set", key))
		}
	}
	return fails
}

func (w *openWorkload) probe() probeSpec {
	return probeSpec{
		node: w.owner, doc: "ATP.xml", sharded: "League.xml",
		queries: []string{"Select p/points from p in ATP//player where p/name/lastname = L7"},
	}
}
