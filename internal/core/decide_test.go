package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

var (
	allEvents   = []eventKind{evCommit, evAbort, evAbortSilent, evCommitMsg, evAbortMsg, evCompensateMsg, evRestart}
	allStatuses = []Status{0, StatusActive, StatusCommitted, StatusAborted}
	eventNames  = map[eventKind]string{evCommit: "commit", evAbort: "abort", evAbortSilent: "abort-silent",
		evCommitMsg: "commit-msg", evAbortMsg: "abort-msg", evCompensateMsg: "compensate-msg", evRestart: "restart"}
)

// allStates lists every state a peer can hold: each status with each
// consistent log (an epoch with effects is not compensated).
func allStates() []state {
	var out []state
	for _, ctx := range allStatuses {
		for _, committed := range []bool{false, true} {
			for _, log := range []struct{ effects, compensated bool }{{false, false}, {true, false}, {false, true}} {
				out = append(out, state{ctx: ctx, committed: committed, effects: log.effects, compensated: log.compensated})
			}
		}
	}
	return out
}

func (st state) String() string {
	s := "none"
	if st.ctx != 0 {
		s = st.ctx.String()
	}
	for _, f := range []struct {
		on   bool
		name string
	}{{st.committed, "committed"}, {st.effects, "effects"}, {st.compensated, "compensated"}} {
		if f.on {
			s += "+" + f.name
		}
	}
	return s
}

// Today's rows, by name.
var (
	rowNone        = actions{}
	rowReject      = actions{reject: true}
	rowCommit      = actions{to: StatusCommitted, record: wal.TypeCommit, release: true, drop: true}
	rowAbort       = actions{to: StatusAborted, record: wal.TypeAbort, undo: true, release: true, parent: true}
	rowAbortSilent = actions{to: StatusAborted, record: wal.TypeAbort, undo: true, release: true}
	rowUndoLogged  = actions{undo: true, release: true}
	rowShipped     = actions{undo: true, release: true, mark: StatusAborted}
	rowForget      = actions{release: true, drop: true}
)

// TestDecisionTable pins every (state, event) pair to today's row. Exactly
// one rule below matches each pair; a live context's row never depends on
// the log, which the executor reads only when the peer holds no context.
func TestDecisionTable(t *testing.T) {
	rules := []struct {
		name string
		ok   func(st state, ev eventKind) bool
		want actions
	}{
		// A live, undecided context.
		{"active commits", func(st state, ev eventKind) bool {
			return st.ctx == StatusActive && (ev == evCommit || ev == evCommitMsg)
		}, rowCommit},
		{"active aborts and tells the parent", func(st state, ev eventKind) bool {
			return st.ctx == StatusActive && (ev == evAbort || ev == evAbortMsg)
		}, rowAbort},
		{"active aborts silently", func(st state, ev eventKind) bool {
			return st.ctx == StatusActive && ev == evAbortSilent
		}, rowAbortSilent},
		// A decided context: a duplicate decision is a no-op, a
		// commit after an abort is refused, a local commit is an error.
		{"decided context refuses a local commit", func(st state, ev eventKind) bool {
			return (st.ctx == StatusCommitted || st.ctx == StatusAborted) && ev == evCommit
		}, rowReject},
		{"decided context ignores a second decision", func(st state, ev eventKind) bool {
			return (st.ctx == StatusCommitted || st.ctx == StatusAborted) &&
				(ev == evAbort || ev == evAbortSilent || ev == evCommitMsg || ev == evAbortMsg)
		}, rowNone},
		// A shipped definition runs at every status, a committed context
		// included: the participant does not check its own commit.
		{"a shipped definition always runs", func(st state, ev eventKind) bool {
			return ev == evCompensateMsg
		}, rowShipped},
		// Restart loses every live context.
		{"restart forgets a live context", func(st state, ev eventKind) bool {
			return st.ctx != 0 && ev == evRestart
		}, rowForget},
		// No context: only messages and restart arrive here.
		{"restart compensates a pending transaction", func(st state, ev eventKind) bool {
			return st.ctx == 0 && ev == evRestart && st.effects && !st.committed
		}, rowUndoLogged},
		{"restart leaves a settled transaction", func(st state, ev eventKind) bool {
			return st.ctx == 0 && ev == evRestart && !(st.effects && !st.committed)
		}, rowNone},
		{"a late commit is dropped", func(st state, ev eventKind) bool { // not resolved from the log
			return st.ctx == 0 && ev == evCommitMsg
		}, rowNone},
		{"an abort compensates the log", func(st state, ev eventKind) bool {
			return st.ctx == 0 && ev == evAbortMsg && st.effects && !st.committed && !st.compensated
		}, rowUndoLogged},
		// A stray abort, for a transaction the log holds no effects of,
		// writes nothing: no empty compensation bracket, no forced record.
		{"an abort leaves a committed, compensated or effect-free transaction", func(st state, ev eventKind) bool {
			return st.ctx == 0 && ev == evAbortMsg && (st.committed || st.compensated || !st.effects)
		}, rowNone},
		{"local events need a context", func(st state, ev eventKind) bool {
			return st.ctx == 0 && (ev == evCommit || ev == evAbort || ev == evAbortSilent)
		}, rowNone},
	}
	pairs := 0
	for _, st := range allStates() {
		for _, ev := range allEvents {
			pairs++
			matched := 0
			for _, r := range rules {
				if !r.ok(st, ev) {
					continue
				}
				matched++
				if got := next(st, ev); got != r.want {
					t.Errorf("next(%v, %s) = %+v, want %+v (%s)", st, eventNames[ev], got, r.want, r.name)
				}
			}
			if matched != 1 {
				t.Errorf("(%v, %s) matches %d rules, want 1", st, eventNames[ev], matched)
			}
			if st.ctx != 0 && next(st, ev) != next(state{ctx: st.ctx}, ev) {
				t.Errorf("next(%v, %s) reads the log of a live context", st, eventNames[ev])
			}
		}
	}
	if want := len(allStatuses) * 6 * len(allEvents); pairs != want {
		t.Fatalf("enumerated %d pairs, want %d", pairs, want)
	}
}

// step applies a row to the state it was chosen in, as the executor and the
// log would: a claim or mark moves the context, a commit record commits, a
// compensation closes the epoch, a drop forgets the context. Appends and
// compensations succeed.
func step(st state, a actions) state {
	if a.to != 0 {
		st.ctx = a.to
	}
	if a.record == wal.TypeCommit {
		st.committed = true
	}
	if a.undo {
		st.effects, st.compensated = false, true
	}
	if a.drop {
		st.ctx = 0
	}
	if a.mark != 0 && st.ctx == StatusActive {
		st.ctx = a.mark
	}
	return st
}

// view is what decide hands next: the log only when no context is live.
func view(st state) state {
	if st.ctx != 0 {
		return state{ctx: st.ctx}
	}
	return st
}

func terminal(ev eventKind) bool {
	switch ev {
	case evCommit, evAbort, evAbortSilent, evCommitMsg, evAbortMsg:
		return true
	}
	return false
}

// checkLaws runs every event sequence of length 1 to 4 from every reachable
// state through table and returns the first violation of each law, by name.
//
//   - committed: a committed transaction is never compensated. A shipped
//     definition is the one known exception, pinned in TestDecisionTable.
//   - second: once a terminal event decided, a later terminal event is a
//     no-op.
//   - once: the peer compensates its own effects at most once per epoch. A
//     shipped definition is run whenever it arrives; its idempotence is the
//     log's compensation bracket (CompensationDef.Execute).
//   - release: every row that decides, compensates or forgets a context
//     releases the transaction's locks.
func checkLaws(table func(state, eventKind) actions) map[string]string {
	found := make(map[string]string)
	var walk func(st state, seq []eventKind, decided bool, undos int)
	walk = func(st state, seq []eventKind, decided bool, undos int) {
		if len(seq) == 4 {
			return
		}
		for _, ev := range allEvents {
			a := table(view(st), ev)
			trail := fmt.Sprintf("%v then %v", seq, eventNames[ev])
			note := func(law string) {
				if _, ok := found[law]; !ok {
					found[law] = trail
				}
			}
			if a.undo && ev != evCompensateMsg && (st.committed || st.ctx == StatusCommitted) {
				note("committed")
			}
			if decided && terminal(ev) && a != rowNone && a != rowReject {
				note("second")
			}
			n := undos
			if a.undo && ev != evCompensateMsg {
				if n++; n > 1 {
					note("once")
				}
			}
			if (a.record != 0 || a.undo || a.drop) && !a.release {
				note("release")
			}
			walk(step(st, a), append(seq[:len(seq):len(seq)], ev),
				decided || terminal(ev) && a != rowNone && a != rowReject, n)
		}
	}
	for _, st := range allStates() {
		// A context that is active or aborted here never logged a commit.
		if st.committed && (st.ctx == StatusActive || st.ctx == StatusAborted) {
			continue
		}
		walk(st, []eventKind{}, false, 0)
	}
	return found
}

// TestDecisionLaws checks the compensation laws as properties of next, over
// every sequence of up to four events from every state, and checks that each
// law catches a table with one row broken.
func TestDecisionLaws(t *testing.T) {
	for law, trail := range checkLaws(next) {
		t.Errorf("law %q broken by %s", law, trail)
	}
	mutants := []struct {
		law  string
		name string
		ev   eventKind
		at   func(state) bool
		row  actions
	}{
		{"committed", "an abort after a commit compensates", evAbortMsg,
			func(st state) bool { return st.ctx == 0 && st.committed }, rowUndoLogged},
		{"second", "a commit after an abort is accepted", evCommitMsg,
			func(st state) bool { return st.ctx == StatusAborted },
			actions{record: wal.TypeCommit, release: true, drop: true}},
		{"once", "restart compensates a compensated transaction", evRestart,
			func(st state) bool { return st.ctx == 0 && st.compensated }, rowUndoLogged},
		{"release", "a participant commit keeps its locks", evCommitMsg,
			func(st state) bool { return st.ctx == StatusActive },
			actions{to: StatusCommitted, record: wal.TypeCommit, drop: true}},
	}
	for _, m := range mutants {
		mutated := func(st state, ev eventKind) actions {
			if ev == m.ev && m.at(st) {
				return m.row
			}
			return next(st, ev)
		}
		if _, caught := checkLaws(mutated)[m.law]; !caught {
			t.Errorf("law %q does not catch the mutant %q", m.law, m.name)
		}
	}
}

// TestCommitsLeaveNoContexts: a committed transaction leaves no context at
// any peer, the origin included.
func TestCommitsLeaveNoContexts(t *testing.T) {
	f := buildFig1(t, newCluster(t), "")
	for i := 0; i < 200; i++ {
		txc := f.origin.Begin()
		if _, err := f.origin.Exec(bg, txc, f.q); err != nil {
			t.Fatal(err)
		}
		if err := f.origin.Commit(bg, txc); err != nil {
			t.Fatal(err)
		}
	}
	// Commits reach the participants one-way.
	deadline := time.Now().Add(5 * time.Second)
	for id, p := range f.peers {
		for p.Manager().Len() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s holds %d contexts after 200 commits", id, p.Manager().Len())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// refuseTo is a transport that refuses every commit and abort message to
// one peer.
type refuseTo struct {
	p2p.Transport
	peer p2p.PeerID
}

func (r *refuseTo) Send(ctx context.Context, to p2p.PeerID, msg *p2p.Message) error {
	if to == r.peer && (msg.Kind == p2p.KindCommit || msg.Kind == p2p.KindAbort) {
		return fmt.Errorf("%w: %s refused", p2p.ErrUnreachable, to)
	}
	return r.Transport.Send(ctx, to, msg)
}

// TestDecisionSendErrorsCounted: a decision message the transport refuses
// is counted, for a commit and for an abort.
func TestDecisionSendErrorsCounted(t *testing.T) {
	for _, end := range []string{"commit", "abort"} {
		t.Run(end, func(t *testing.T) {
			c := newCluster(t)
			c.setup = func(id p2p.PeerID, tr p2p.Transport, _ *Options) (p2p.Transport, wal.Log) {
				if id == "AP1" {
					return &refuseTo{Transport: tr, peer: "AP2"}, wal.NewMemory()
				}
				return tr, wal.NewMemory()
			}
			f := buildFig1(t, c, "")
			txc := f.origin.Begin()
			if _, err := f.origin.Exec(bg, txc, f.q); err != nil {
				t.Fatal(err)
			}
			decide := f.origin.Commit
			if end == "abort" {
				decide = f.origin.Abort
			}
			if err := decide(bg, txc); err != nil {
				t.Fatal(err)
			}
			if n := f.origin.Metrics().DecisionSendErrors.Load(); n != 1 {
				t.Fatalf("DecisionSendErrors = %d after a %s AP2 never heard, want 1", n, end)
			}
		})
	}
}

// TestFailedCommitKeepsDeletedSubtrees: a commit whose record cannot be made
// durable, at the origin and at a leaf, closes the transaction's
// deleted-subtree note without un-indexing the subtrees, which restart
// compensation may re-attach, and is counted at both.
func TestFailedCommitKeepsDeletedSubtrees(t *testing.T) {
	net := p2p.NewNetwork(0)
	ap1 := NewPeer(net.Join("AP1"), &commitFailLog{Log: wal.NewMemory(), nth: 1}, Options{})
	ap2 := NewPeer(net.Join("AP2"), &commitFailLog{Log: wal.NewMemory(), nth: 1}, Options{})
	slot := func(p *Peer, doc string) xmldom.NodeID {
		d, _ := p.Store().Get(doc)
		return d.Root().Children()[0].ID()
	}
	if err := ap1.HostDocument("D1.xml", `<D1><slot v="0"/></D1>`); err != nil {
		t.Fatal(err)
	}
	if err := ap2.HostDocument("D2.xml", `<D2><slot v="0"/></D2>`); err != nil {
		t.Fatal(err)
	}
	ap2.HostUpdateService(services.Descriptor{Name: "W", ResultName: "updateResult", TargetDocument: "D2.xml"},
		`<action type="replace"><data><slot v="1"/></data><location>Select s from s in D2/slot;</location></action>`)
	loc, err := axml.ParseQuery(`Select s from s in D1/slot`)
	if err != nil {
		t.Fatal(err)
	}
	old1, old2 := slot(ap1, "D1.xml"), slot(ap2, "D2.xml")
	txc := ap1.Begin()
	if _, err := ap1.Exec(bg, txc, axml.NewReplace(loc, `<slot v="1"/>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ap1.Call(bg, txc, "AP2", "W", nil); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Commit(bg, txc); !errors.Is(err, errInjected) {
		t.Fatalf("Commit = %v, want the injected failure", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ap2.Metrics().CommitErrors.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("AP2 never failed its commit")
		}
		time.Sleep(time.Millisecond)
	}
	for _, pd := range []struct {
		p   *Peer
		doc string
		old xmldom.NodeID
	}{{ap1, "D1.xml", old1}, {ap2, "D2.xml", old2}} {
		id := pd.p.ID()
		if n := pd.p.Store().DeletedTxns(); n != 0 {
			t.Errorf("%s still notes deletions of %d transactions", id, n)
		}
		if d, _ := pd.p.Store().Get(pd.doc); d.ByID(pd.old) == nil {
			t.Errorf("%s un-indexed the replaced slot of a commit that never became durable", id)
		}
		if n := pd.p.Metrics().CommitErrors.Load(); n != 1 {
			t.Errorf("%s: CommitErrors = %d, want 1", id, n)
		}
	}
}

// TestStrayAbortWritesNothing: an abort for a transaction this peer never
// saw has no effects to undo, so it appends no record, in particular no
// empty compensation bracket whose end record waits for the disk.
func TestStrayAbortWritesNothing(t *testing.T) {
	log, err := wal.OpenDir(t.TempDir(), wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	net := p2p.NewNetwork(0)
	ap1 := NewPeer(net.Join("AP1"), log, Options{})
	sender := net.Join("AP2")
	for i := 0; i < 10000; i++ {
		if _, err := sender.Request(bg, "AP1", &p2p.Message{Kind: p2p.KindAbort, Txn: fmt.Sprintf("stray-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(log.Records()); n != 0 {
		t.Fatalf("10000 stray aborts appended %d records, want 0", n)
	}
	if n := ap1.Metrics().AbortsReceived.Load(); n != 10000 {
		t.Fatalf("AbortsReceived = %d, want 10000", n)
	}
}

// TestReadOnlyCommitLogsOnlyTheDecision: a committed transaction that only
// read leaves one record in the origin's log, its commit. Begin writes
// nothing: no reader of the log needs a begin record.
func TestReadOnlyCommitLogsOnlyTheDecision(t *testing.T) {
	log := wal.NewMemory()
	ap1 := NewPeer(p2p.NewNetwork(0).Join("AP1"), log, Options{})
	if err := ap1.HostDocument("D.xml", "<D><a>1</a></D>"); err != nil {
		t.Fatal(err)
	}
	q, err := axml.ParseQuery("Select x from x in D/a")
	if err != nil {
		t.Fatal(err)
	}
	txc := ap1.Begin()
	if _, err := ap1.Exec(bg, txc, axml.NewQuery(q)); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Commit(bg, txc); err != nil {
		t.Fatal(err)
	}
	recs := log.Records()
	if len(recs) != 1 || recs[0].Type != wal.TypeCommit || recs[0].Txn != txc.ID {
		t.Fatalf("log = %v, want one commit record of %s", recs, txc.ID)
	}
}

// TestReadOnlyCommitsIssueNoFsync: on a durable peer, a committed read-only
// transaction still logs its commit record but waits for no fsync, because
// nothing of it is there to compensate; a committed replace forces its
// commit record. axml_wal_fsyncs counts every fsync the log issues.
func TestReadOnlyCommitsIssueNoFsync(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := Open(t.TempDir(), p2p.NewNetwork(0).Join("AP1"), Options{MetricsRegistry: reg}, wal.SegmentOptions{},
		func(p *Peer) error { return p.HostDocument("D.xml", "<D><a>1</a></D>") })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	fsyncs := func() int64 { return gaugeValue(t, reg, "axml_wal_fsyncs") }
	commits := func() int {
		n := 0
		for _, r := range p.Store().Log().Records() {
			if r.Type == wal.TypeCommit {
				n++
			}
		}
		return n
	}
	q, err := axml.ParseQuery("Select x from x in D/a")
	if err != nil {
		t.Fatal(err)
	}
	run := func(action *axml.Action) {
		txc := p.Begin()
		if _, err := p.Exec(bg, txc, action); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(bg, txc); err != nil {
			t.Fatal(err)
		}
	}
	syncs, logged := fsyncs(), commits()
	for i := 0; i < 100; i++ {
		run(axml.NewQuery(q))
	}
	if n := fsyncs() - syncs; n != 0 {
		t.Fatalf("100 read-only commits issued %d fsyncs, want 0", n)
	}
	if n := commits() - logged; n != 100 {
		t.Fatalf("100 read-only commits logged %d commit records, want 100", n)
	}
	syncs = fsyncs()
	run(axml.NewReplace(q, "<a>2</a>"))
	if n := fsyncs() - syncs; n < 1 {
		t.Fatalf("a committed replace issued %d fsyncs, want at least 1", n)
	}
}

// TestSlowTxnLogWithoutTracing: the slow-transaction hook sees aborts as
// well as commits when the peer traces nothing.
func TestSlowTxnLogWithoutTracing(t *testing.T) {
	var mu sync.Mutex
	var outcomes []string
	p := NewPeer(p2p.NewNetwork(0).Join("AP1"), wal.NewMemory(), Options{
		SlowTxn: time.Nanosecond,
		SlowTxnLog: func(_ string, _ time.Duration, outcome string) {
			mu.Lock()
			defer mu.Unlock()
			outcomes = append(outcomes, outcome)
		},
	})
	if err := p.HostDocument("D.xml", `<D/>`); err != nil {
		t.Fatal(err)
	}
	aborted := p.Begin()
	execInsert(t, p, aborted, `<x/>`)
	if err := p.Abort(bg, aborted); err != nil {
		t.Fatal(err)
	}
	committed := p.Begin()
	execInsert(t, p, committed, `<x/>`)
	if err := p.Commit(bg, committed); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"aborted", "committed"}; !slices.Equal(outcomes, want) {
		t.Fatalf("SlowTxnLog saw %v, want %v", outcomes, want)
	}
}
