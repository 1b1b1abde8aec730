package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/vclock"
)

// Injection records one injected fault, for reports and debugging.
type Injection struct {
	Fault    Fault
	Rule     int // index into the schedule
	From, To p2p.PeerID
	Kind     string
	Victim   p2p.PeerID // crash victim (crash faults only)
}

func (i Injection) String() string {
	s := fmt.Sprintf("%s %s->%s %s", i.Fault, i.From, i.To, i.Kind)
	if i.Victim != "" {
		s += " victim=" + string(i.Victim)
	}
	return s
}

// Injector owns the fault schedule and the injected failure state (crashed
// peers, partitions, held messages). All decisions are deterministic in
// (seed, rule index, directed edge, per-edge match count) — a hash-derived
// coin rather than a shared rand stream, so the engine's internal
// concurrency (parallel materialization, async result pushes, pingers)
// cannot perturb which messages a schedule hits.
type Injector struct {
	seed   int64
	tracer *obs.Tracer
	clock  vclock.Clock

	mu          sync.Mutex
	rules       []Rule
	active      bool
	needDepth   bool
	syncRestart bool
	counts      []map[string]int // per rule: directed-edge key -> matches seen
	injected    []map[string]int // per rule: directed-edge key -> injections fired
	crashed     map[p2p.PeerID]bool
	restartIn   map[p2p.PeerID]int // blocked deliveries until auto-restart
	parts       map[string]bool    // "from->to" blocked directions
	protected   map[p2p.PeerID]bool
	hooks       map[p2p.PeerID]func()
	held        map[string][]heldSend // reorder buffers per directed edge
	log         []Injection
	restarts    int
}

// heldSend is a one-way message parked by a reorder fault.
type heldSend struct {
	to      p2p.PeerID
	msg     *p2p.Message
	deliver func(*p2p.Message) error
}

// NewInjector builds an injector for the given seed and schedule. sink, when
// non-nil, receives a KindFault span per injection (and per crash/restart).
func NewInjector(seed int64, rules []Rule, sink obs.Sink) *Injector {
	in := &Injector{
		seed:      seed,
		tracer:    obs.NewTracer("chaos", sink),
		clock:     vclock.Real,
		rules:     rules,
		active:    true,
		counts:    make([]map[string]int, len(rules)),
		injected:  make([]map[string]int, len(rules)),
		crashed:   make(map[p2p.PeerID]bool),
		restartIn: make(map[p2p.PeerID]int),
		parts:     make(map[string]bool),
		protected: make(map[p2p.PeerID]bool),
		hooks:     make(map[p2p.PeerID]func()),
		held:      make(map[string][]heldSend),
	}
	for i := range rules {
		in.counts[i] = make(map[string]int)
		in.injected[i] = make(map[string]int)
		if rules[i].Depth > 0 {
			in.needDepth = true
		}
	}
	return in
}

// Seed returns the schedule seed.
func (in *Injector) Seed() int64 { return in.seed }

// SetClock swaps the clock delay faults sleep on. The discrete-event
// harness installs its virtual clock so delay rules advance simulated time
// instead of blocking the process. Call before traffic starts.
func (in *Injector) SetClock(c vclock.Clock) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.clock = vclock.Or(c)
}

// SetSynchronousRestart makes countdown restarts (rule option restart=N)
// run inline on the delivery path instead of in a fresh goroutine. The
// discrete-event harness needs this: a single-threaded simulation has no
// scheduler to run the goroutine, and inline execution keeps the event
// order deterministic. Call before traffic starts.
func (in *Injector) SetSynchronousRestart(on bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.syncRestart = on
}

// sleep waits out an injected delay on the injector's clock.
func (in *Injector) sleep(ctx context.Context, d time.Duration) {
	in.mu.Lock()
	clock := in.clock
	in.mu.Unlock()
	_ = clock.Sleep(ctx, d)
}

// Rules returns the schedule.
func (in *Injector) Rules() []Rule { return in.rules }

// Protect marks peers the schedule must never crash — the paper's super
// peers, which "do not disconnect" (§3.3); partitions and message faults
// still apply.
func (in *Injector) Protect(ids ...p2p.PeerID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, id := range ids {
		in.protected[id] = true
	}
}

// OnRestart registers the hook run when an injected crash of id is followed
// by a restart (rule option restart=N, RestartAll, or Heal). Typically
// core.Peer.Restart — drop volatile state, then WAL-replay recovery.
func (in *Injector) OnRestart(id p2p.PeerID, fn func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hooks[id] = fn
}

// Crash marks a peer dead outside any rule — scenario scripts use it for
// deaths that no message precedes (e.g. a peer hanging mid-service).
func (in *Injector) Crash(id p2p.PeerID) {
	in.mu.Lock()
	if in.protected[id] || in.crashed[id] {
		in.mu.Unlock()
		return
	}
	in.crashed[id] = true
	in.mu.Unlock()
	sp := in.tracer.Start("", "", obs.KindFault, string(FaultCrash))
	sp.SetTarget(string(id))
	sp.End("chaos:crash", nil)
}

// PartitionLink blocks both directions between a and b outside any rule —
// scenario scripts use it for clean network partitions (e.g. forcing a
// false suspicion in the gossip failure detector).
func (in *Injector) PartitionLink(a, b p2p.PeerID) {
	in.mu.Lock()
	in.parts[edgeKey(a, b)] = true
	in.parts[edgeKey(b, a)] = true
	in.mu.Unlock()
	sp := in.tracer.Start("", "", obs.KindFault, string(FaultPartition))
	sp.SetTarget(string(a) + "<->" + string(b))
	sp.End("chaos:"+string(FaultPartition), nil)
}

// HealLink reverses PartitionLink for one pair.
func (in *Injector) HealLink(a, b p2p.PeerID) {
	in.mu.Lock()
	delete(in.parts, edgeKey(a, b))
	delete(in.parts, edgeKey(b, a))
	in.mu.Unlock()
}

// Crashed reports whether the peer is currently down.
func (in *Injector) Crashed(id p2p.PeerID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[id]
}

// Restart revives one crashed peer and runs its restart hook.
func (in *Injector) Restart(id p2p.PeerID) {
	in.mu.Lock()
	if !in.crashed[id] {
		in.mu.Unlock()
		return
	}
	delete(in.crashed, id)
	delete(in.restartIn, id)
	in.restarts++
	hook := in.hooks[id]
	in.mu.Unlock()
	if hook != nil {
		hook()
	}
	sp := in.tracer.Start("", "", obs.KindFault, "restart")
	sp.SetTarget(string(id))
	sp.End("", nil)
}

// RestartAll revives every crashed peer (in sorted order, for determinism).
func (in *Injector) RestartAll() {
	in.mu.Lock()
	var ids []p2p.PeerID
	for id := range in.crashed {
		ids = append(ids, id)
	}
	in.mu.Unlock()
	sortPeers(ids)
	for _, id := range ids {
		in.Restart(id)
	}
}

// Heal ends the chaos phase: the schedule stops firing, partitions lift,
// held messages flush, and every crashed peer restarts (running its
// WAL-replay hook). Conformance runs heal before checking invariants — the
// paper's guarantees are about the state the system converges to once
// disconnected peers rejoin, not about mid-partition limbo.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.active = false
	in.parts = make(map[string]bool)
	var flush []heldSend
	for _, hs := range in.held {
		flush = append(flush, hs...)
	}
	in.held = make(map[string][]heldSend)
	in.mu.Unlock()
	for _, h := range flush {
		_ = h.deliver(h.msg)
	}
	in.RestartAll()
}

// Injections returns a copy of the injection record.
func (in *Injector) Injections() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Injection(nil), in.log...)
}

// Restarts returns how many injected crashes were followed by a restart.
func (in *Injector) Restarts() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.restarts
}

// verdict is the decision for one message.
type verdict struct {
	err     error // delivery fails outright (crashed peer, partition, drop of a request)
	drop    bool  // one-way message silently vanishes
	hangup  bool  // deliver, then tear down the response path
	dup     bool
	reorder bool
	delay   time.Duration
}

// errInjected builds the typed delivery error: it wraps p2p.ErrUnreachable
// so errors.Is(err, core.ErrPeerDown) holds through the whole engine.
func errInjected(what string, from, to p2p.PeerID) error {
	return fmt.Errorf("chaos: %s (%s -> %s): %w", what, from, to, p2p.ErrUnreachable)
}

// decide evaluates blocked state and the schedule against one outbound
// message. isRequest distinguishes request/response traffic from one-way
// sends (drop semantics differ). The message must carry From/To.
func (in *Injector) decide(msg *p2p.Message, isRequest bool) verdict {
	in.mu.Lock()
	if !in.active {
		in.mu.Unlock()
		return verdict{}
	}

	// A dead sender's I/O fails; a dead receiver is unreachable; a
	// partitioned direction eats the message.
	if in.crashed[msg.From] {
		in.mu.Unlock()
		return verdict{err: errInjected("sender crashed", msg.From, msg.To)}
	}
	if in.crashed[msg.To] {
		fire := in.countdownLocked(msg.To)
		sync := in.syncRestart
		in.mu.Unlock()
		if fire {
			if sync {
				in.Restart(msg.To)
			} else {
				go in.Restart(msg.To)
			}
		}
		return verdict{err: errInjected("peer crashed", msg.From, msg.To)}
	}
	if in.parts[edgeKey(msg.From, msg.To)] {
		in.mu.Unlock()
		return verdict{err: errInjected("partitioned", msg.From, msg.To)}
	}

	depth := 0
	if in.needDepth && msg.Kind == p2p.KindInvoke {
		depth = invokeDepth(msg)
	}

	var v verdict
	var spans []Injection
	for i, r := range in.rules {
		if !r.matches(msg, depth) {
			continue
		}
		edge := edgeKey(msg.From, msg.To)
		n := in.counts[i][edge]
		in.counts[i][edge] = n + 1
		if n < r.After {
			continue
		}
		if r.Times > 0 && in.injected[i][edge] >= r.Times {
			continue
		}
		if r.P > 0 && r.P < 1 && in.roll(i, edge, n) >= r.P {
			continue
		}

		inj := Injection{Fault: r.Fault, Rule: i, From: msg.From, To: msg.To, Kind: msg.Kind}
		switch r.Fault {
		case FaultDrop:
			v.drop = true
		case FaultDelay:
			d := r.Delay
			if d <= 0 {
				d = time.Millisecond
			}
			v.delay += d
		case FaultDup:
			v.dup = true
		case FaultReorder:
			if !isRequest {
				v.reorder = true
			}
		case FaultHangup:
			v.hangup = true
		case FaultCrash:
			victim := r.Peer
			if victim == "" {
				victim = msg.To
			}
			if in.protected[victim] || in.crashed[victim] {
				continue
			}
			in.crashed[victim] = true
			if r.Restart > 0 {
				in.restartIn[victim] = r.Restart
			}
			inj.Victim = victim
			if victim == msg.To || victim == msg.From {
				v.err = errInjected("crashed "+string(victim), msg.From, msg.To)
			}
		case FaultPartition:
			in.parts[edge] = true
			v.err = errInjected("partitioned", msg.From, msg.To)
		}
		in.injected[i][edge]++
		in.log = append(in.log, inj)
		spans = append(spans, inj)
	}
	in.mu.Unlock()

	for _, inj := range spans {
		// Strip the sampler's drop-eligibility marker before parenting: the
		// fault span must hang under the real span, and a fault forces the
		// transaction to be kept anyway.
		parent, _ := obs.DecodeWireSpan(msg.Span)
		sp := in.tracer.Start(msg.Txn, parent, obs.KindFault, string(inj.Fault))
		sp.SetTarget(string(msg.To))
		sp.SetAttr("rule", in.rules[inj.Rule].String())
		sp.SetAttr("kind", msg.Kind)
		if inj.Victim != "" {
			sp.SetAttr("victim", string(inj.Victim))
		}
		sp.End("chaos:"+string(inj.Fault), nil)
	}
	return v
}

// countdownLocked ticks a crashed peer's restart counter and reports
// whether the peer is due to revive. The caller holds the lock and must
// perform the restart after releasing it (in a goroutine by default, or
// inline under SetSynchronousRestart).
func (in *Injector) countdownLocked(id p2p.PeerID) bool {
	n, ok := in.restartIn[id]
	if !ok {
		return false
	}
	n--
	if n > 0 {
		in.restartIn[id] = n
		return false
	}
	delete(in.restartIn, id)
	return true
}

// roll is the deterministic coin: a hash of (seed, rule, edge, match count)
// mapped to [0,1).
func (in *Injector) roll(rule int, edge string, n int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%d", in.seed, rule, edge, n)
	const span = 1 << 52
	return float64(h.Sum64()%span) / float64(span)
}

func edgeKey(from, to p2p.PeerID) string { return string(from) + "->" + string(to) }

// hold parks a reordered one-way message until the next send on its edge
// (or Heal) delivers it.
func (in *Injector) hold(from, to p2p.PeerID, msg *p2p.Message, deliver func(*p2p.Message) error) {
	cp := *msg
	in.mu.Lock()
	in.held[edgeKey(from, to)] = append(in.held[edgeKey(from, to)], heldSend{to: to, msg: &cp, deliver: deliver})
	in.mu.Unlock()
}

// takeHeld removes and returns the messages parked on an edge.
func (in *Injector) takeHeld(from, to p2p.PeerID) []heldSend {
	in.mu.Lock()
	defer in.mu.Unlock()
	hs := in.held[edgeKey(from, to)]
	if hs != nil {
		delete(in.held, edgeKey(from, to))
	}
	return hs
}

// invokeDepth decodes the invoke payload's chain and returns the callee's
// depth (ancestors between it and the origin); 0 when unknown.
func invokeDepth(msg *p2p.Message) int {
	var req core.InvokeRequest
	if err := core.DecodeWire(msg.Payload, &req); err != nil {
		return 0
	}
	if req.Chain == nil {
		return 0
	}
	return len(req.Chain.AncestorsOf(msg.To))
}

func sortPeers(ids []p2p.PeerID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
