package main

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// epoch is the zero of every timestamp the benchmark records. Times are
// monotonic nanoseconds since it, so spans taken on different peers of the
// one process compare directly.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one observation at a layer boundary. Name is "<layer>.<what>";
// Peer is the peer the work ran on. Message spans also carry the message's
// kind, subject and endpoints so a handler span can be matched to the
// request that caused it on the calling peer.
type span struct {
	Name    string `json:"name"`
	Peer    string `json:"peer"`
	Txn     string `json:"txn,omitempty"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	G       int64  `json:"g,omitempty"` // goroutine the span ran on, where it was asked for
	Kind    string `json:"kind,omitempty"`
	Subject string `json:"subject,omitempty"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	Parent  int    `json:"parent"` // index into the span file, -1 for a root

	kids []int
}

func (s *span) dur() int64 { return s.End - s.Start }

// goid returns the current goroutine's number, parsed from the first line
// of its stack ("goroutine 123 [running]:"). It costs a stack walk, so only
// traced runs call it, and only for the spans that need it: those with no
// transaction of their own (Store.Apply's observer, Sync), which attach to
// the enclosing span of the same goroutine, and the spans that may enclose
// them. Log appends and messages carry their transaction instead.
func goid() int64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		n, _ := strconv.ParseInt(string(b[:i]), 10, 64)
		return n
	}
	return 0
}

// capturedPayload is a real wire payload kept for the codec replay probe.
type capturedPayload struct {
	kind     string // message kind of the request it belongs to
	response bool
	data     []byte
}

const maxCaptured = 4096

// recorder collects spans and counts while on is set; with on clear every
// tap is a pass-through costing one atomic load.
type recorder struct {
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	payloads []capturedPayload

	msgs, payloadBytes, requestErrors     atomic.Int64
	walRecords, walBytes                  atomic.Int64
	walSyncs, walTxnRecordsCalls, applies atomic.Int64
}

func (r *recorder) add(s span) {
	s.Parent = -1
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) capture(kind string, response bool, data []byte) {
	if len(data) == 0 {
		return
	}
	r.mu.Lock()
	if len(r.payloads) < maxCaptured {
		r.payloads = append(r.payloads, capturedPayload{kind, response, append([]byte(nil), data...)})
	}
	r.mu.Unlock()
}

// netTap decorates a peer's transport: it times Request, Send and the
// installed handler, and counts messages and payload bytes.
type netTap struct {
	inner p2p.Transport
	rec   *recorder
	peer  string
}

func (t *netTap) Self() p2p.PeerID { return t.inner.Self() }
func (t *netTap) Close() error     { return t.inner.Close() }

func (t *netTap) Send(ctx context.Context, to p2p.PeerID, msg *p2p.Message) error {
	if !t.rec.on.Load() {
		return t.inner.Send(ctx, to, msg)
	}
	start := now()
	err := t.inner.Send(ctx, to, msg)
	t.rec.add(span{Name: "p2p.send", Peer: t.peer, Txn: msg.Txn, Start: start, End: now(),
		Kind: msg.Kind, Subject: msg.Subject, From: t.peer, To: string(to)})
	t.rec.msgs.Add(1)
	t.rec.payloadBytes.Add(int64(len(msg.Payload)))
	t.rec.capture(msg.Kind, false, msg.Payload)
	return err
}

func (t *netTap) Request(ctx context.Context, to p2p.PeerID, msg *p2p.Message) (*p2p.Message, error) {
	if !t.rec.on.Load() {
		return t.inner.Request(ctx, to, msg)
	}
	start := now()
	resp, err := t.inner.Request(ctx, to, msg)
	t.rec.add(span{Name: "p2p.request", Peer: t.peer, Txn: msg.Txn, Start: start, End: now(),
		Kind: msg.Kind, Subject: msg.Subject, From: t.peer, To: string(to)})
	t.rec.msgs.Add(1)
	t.rec.payloadBytes.Add(int64(len(msg.Payload)))
	t.rec.capture(msg.Kind, false, msg.Payload)
	if err != nil {
		t.rec.requestErrors.Add(1)
	} else if resp != nil {
		t.rec.payloadBytes.Add(int64(len(resp.Payload)))
		t.rec.capture(msg.Kind, true, resp.Payload)
	}
	return resp, err
}

func (t *netTap) SetHandler(h p2p.Handler) {
	t.inner.SetHandler(func(ctx context.Context, msg *p2p.Message) (*p2p.Message, error) {
		if !t.rec.on.Load() {
			return h(ctx, msg)
		}
		// The engine rewrites nothing in msg, but copy what the span needs
		// before handing it over.
		s := span{Name: "core.handle." + msg.Kind, Peer: t.peer, Txn: msg.Txn, G: goid(),
			Kind: msg.Kind, Subject: msg.Subject, From: string(msg.From), To: t.peer}
		s.Start = now()
		resp, err := h(ctx, msg)
		s.End = now()
		t.rec.add(s)
		return resp, err
	})
}

// walTap decorates a peer's log. In every run it reports terminal records
// (commit, compensate-end) to the settle tracker once the inner Append has
// returned, that is once they are durable; in traced runs it also times
// Append, Sync and TxnRecords and sizes records.
type walTap struct {
	inner  wal.Log
	rec    *recorder
	peer   string
	settle *settleTracker
}

func (l *walTap) Append(r *wal.Record) (uint64, error) {
	on := l.rec.on.Load()
	var start int64
	if on {
		start = now()
	}
	lsn, err := l.inner.Append(r)
	if err == nil && (r.Type == wal.TypeCommit || r.Type == wal.TypeCompensateEnd) {
		l.settle.terminal(r.Txn, l.peer, now(), lsn)
	}
	if on {
		l.rec.add(span{Name: "wal.append", Peer: l.peer, Txn: r.Txn, Start: start, End: now()})
		l.rec.walRecords.Add(1)
		l.rec.walBytes.Add(int64(len(wal.EncodeRecord(r))))
	}
	return lsn, err
}

func (l *walTap) Records() []*wal.Record { return l.inner.Records() }

func (l *walTap) TxnRecords(txn string) []*wal.Record {
	if !l.rec.on.Load() {
		return l.inner.TxnRecords(txn)
	}
	start := now()
	recs := l.inner.TxnRecords(txn)
	l.rec.add(span{Name: "wal.txnrecords", Peer: l.peer, Txn: txn, Start: start, End: now()})
	l.rec.walTxnRecordsCalls.Add(1)
	return recs
}

func (l *walTap) Sync() error {
	if !l.rec.on.Load() {
		return l.inner.Sync()
	}
	start := now()
	err := l.inner.Sync()
	// Sync carries no transaction; the span inherits it from the enclosing
	// span of its goroutine.
	l.rec.add(span{Name: "wal.sync", Peer: l.peer, Start: start, End: now(), G: goid()})
	l.rec.walSyncs.Add(1)
	return err
}

func (l *walTap) Close() error { return l.inner.Close() }

// applyObserver is installed with Store.SetApplyObserver; the store calls
// it at the end of each Apply, on the goroutine that ran it.
func (r *recorder) applyObserver(peer string) func(time.Duration) {
	return func(d time.Duration) {
		if !r.on.Load() {
			return
		}
		end := now()
		r.add(span{Name: "axml.apply", Peer: peer, Start: end - int64(d), End: end, G: goid()})
		r.applies.Add(1)
	}
}

// terminalMark is one terminal record a peer's log acknowledged.
type terminalMark struct {
	txn string
	lsn uint64
}

const terminalRing = 64

type settleEntry struct {
	begin    int64
	expected int
	peers    []string
	last     int64
}

type settleSample struct {
	at, dur int64
}

// settleTracker turns terminal WAL records into the settle metric: a
// transaction is settled once every expected participant has a durable
// commit or compensate-end record for it.
type settleTracker struct {
	mu      sync.Mutex
	open    map[string]*settleEntry
	done    []settleSample
	recent  map[string][]terminalMark // per peer, the last terminalRing marks
	pending int                       // entries with expected > 0 still open
}

func newSettleTracker() *settleTracker {
	return &settleTracker{open: make(map[string]*settleEntry), recent: make(map[string][]terminalMark)}
}

func (t *settleTracker) entry(txn string) *settleEntry {
	e := t.open[txn]
	if e == nil {
		e = &settleEntry{}
		t.open[txn] = e
	}
	return e
}

func (t *settleTracker) terminal(txn, peer string, at int64, lsn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ring := append(t.recent[peer], terminalMark{txn, lsn})
	if len(ring) > terminalRing {
		ring = ring[len(ring)-terminalRing:]
	}
	t.recent[peer] = ring
	e := t.entry(txn)
	for _, p := range e.peers {
		if p == peer {
			return
		}
	}
	e.peers = append(e.peers, peer)
	if at > e.last {
		e.last = at
	}
	t.finish(txn, e)
}

// expect registers how many participants must reach a terminal record and
// when the transaction began. The client calls it before Commit or Abort;
// participants that compensated earlier are already counted.
func (t *settleTracker) expect(txn string, begin int64, participants int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(txn)
	e.begin, e.expected = begin, participants
	t.pending++
	t.finish(txn, e)
}

func (t *settleTracker) finish(txn string, e *settleEntry) {
	if e.expected == 0 || len(e.peers) < e.expected {
		return
	}
	t.done = append(t.done, settleSample{at: e.last, dur: e.last - e.begin})
	delete(t.open, txn)
	t.pending--
}

// drain waits until every registered transaction has settled, at most
// grace, and returns the samples taken since the last drain and how many
// transactions are still unsettled.
func (t *settleTracker) drain(grace time.Duration) (samples []settleSample, unsettled int) {
	deadline := time.Now().Add(grace)
	for {
		t.mu.Lock()
		if t.pending == 0 || time.Now().After(deadline) {
			samples, unsettled = t.done, t.pending
			t.done = nil
			for txn, e := range t.open {
				if e.expected > 0 {
					delete(t.open, txn)
				}
			}
			t.pending = 0
			t.mu.Unlock()
			return samples, unsettled
		}
		t.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

func (t *settleTracker) recentTerminals(peer string) []terminalMark {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]terminalMark(nil), t.recent[peer]...)
}
