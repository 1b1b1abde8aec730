package core

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// raiseTo lifts v to lsn unless it is already at or above it.
func raiseTo(v *atomic.Uint64, lsn uint64) {
	for {
		cur := v.Load()
		if lsn <= cur || v.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// durableTap decorates a peer's log with its durable watermark: the highest
// LSN covered by a returned Sync or forced decision Append. A Sync covers
// every LSN whose Append had returned when it was called; a decision is
// forced when its transaction appended a record before it (the runs here
// take no checkpoint, so a record once seen stays in the log's index).
type durableTap struct {
	wal.Log
	appended  atomic.Uint64
	watermark atomic.Uint64
	logged    sync.Map // transaction ID -> true once it appended a record
}

func (l *durableTap) Append(r *wal.Record) (uint64, error) {
	_, earlier := l.logged.LoadOrStore(r.Txn, true)
	lsn, err := l.Log.Append(r)
	if err != nil {
		return lsn, err
	}
	raiseTo(&l.appended, lsn)
	switch r.Type {
	case wal.TypeCommit, wal.TypeAbort, wal.TypeCompensateEnd:
		if earlier {
			raiseTo(&l.watermark, lsn)
		}
	}
	return lsn, nil
}

func (l *durableTap) Sync() error {
	covered := l.appended.Load()
	if err := l.Log.Sync(); err != nil {
		return err
	}
	raiseTo(&l.watermark, covered)
	return nil
}

// writeAheadNet decorates a peer's transport: every message derived from
// a transaction's records at this peer — the invocation reply, the async
// result push and its redirect, the definition shipped to the origin — is
// checked against the peer's durable watermark as it leaves.
type writeAheadNet struct {
	p2p.Transport
	t       *testing.T
	log     *durableTap
	checked map[string]*atomic.Int64
}

func (n *writeAheadNet) check(msg *p2p.Message) {
	c, ok := n.checked[msg.Kind]
	if !ok || msg.Txn == "" {
		return
	}
	c.Add(1)
	recs := n.log.TxnRecords(msg.Txn)
	if len(recs) == 0 {
		return
	}
	if last, wm := recs[len(recs)-1].LSN, n.log.watermark.Load(); last > wm {
		n.t.Errorf("%s sent %s for %s while its record %d is above the durable watermark %d",
			n.Self(), msg.Kind, msg.Txn, last, wm)
	}
}

func (n *writeAheadNet) Send(ctx context.Context, to p2p.PeerID, msg *p2p.Message) error {
	n.check(msg)
	return n.Transport.Send(ctx, to, msg)
}

func (n *writeAheadNet) SetHandler(h p2p.Handler) {
	n.Transport.SetHandler(func(ctx context.Context, msg *p2p.Message) (*p2p.Message, error) {
		resp, err := h(ctx, msg)
		if resp != nil {
			n.check(resp)
		}
		return resp, err
	})
}

// TestReplyNeverAheadOfLog runs Fig. 1 over on-disk logs, whose
// effect records do not wait for the disk, and fails if any peer lets a
// result or a compensating-service definition for T leave while one of T's
// records there is not yet durable. Every peer runs peer-independent
// recovery, so participants below AP3 also ship definitions to the origin.
func TestReplyNeverAheadOfLog(t *testing.T) {
	variants := []struct {
		name string
		run  func(t *testing.T, f *fig1)
	}{
		{"commit", func(t *testing.T, f *fig1) {
			txc := f.origin.Begin()
			if _, err := f.origin.Exec(bg, txc, f.q); err != nil {
				t.Fatal(err)
			}
			if err := f.origin.Commit(bg, txc); err != nil {
				t.Fatal(err)
			}
		}},
		{"abortS5", func(t *testing.T, f *fig1) {
			f.failS5.Store(true)
			txc := f.origin.Begin()
			if _, err := f.origin.Exec(bg, txc, f.q); err == nil {
				t.Fatal("expected TA to fail")
			}
			if err := f.origin.Abort(bg, txc); err != nil {
				t.Fatal(err)
			}
			f.assertAllRestored(t)
		}},
		{"callAsync", func(t *testing.T, f *fig1) {
			got := make(chan struct{}, 1)
			f.origin.OnResult(func(string, *InvokeResponse) { got <- struct{}{} })
			txc := f.origin.Begin()
			if err := f.origin.CallAsync(bg, txc, "AP3", "S3", nil); err != nil {
				t.Fatal(err)
			}
			select {
			case <-got:
			case <-timeAfter():
				t.Fatal("async result never delivered")
			}
			if err := f.origin.Commit(bg, txc); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			checked := map[string]*atomic.Int64{
				p2p.KindResult: {}, p2p.KindCompDef: {}, p2p.KindRedirect: {},
			}
			c := newCluster(t)
			c.setup = func(id p2p.PeerID, tr p2p.Transport, opts *Options) (p2p.Transport, wal.Log) {
				opts.PeerIndependent = true
				seg, err := wal.OpenDir(filepath.Join(dir, string(id)), wal.SegmentOptions{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = seg.Close() })
				log := &durableTap{Log: seg}
				return &writeAheadNet{Transport: tr, t: t, log: log, checked: checked}, log
			}
			f := buildFig1(t, c, "")
			v.run(t, f)
			if n := checked[p2p.KindResult].Load(); n < 3 {
				t.Fatalf("only %d results were checked", n)
			}
			if n := checked[p2p.KindCompDef].Load(); n == 0 {
				t.Fatal("no definition shipped to the origin was checked")
			}
		})
	}
}

// commitFailLog fails the durability wait of its nth TypeCommit append: the
// record is stored, then Append reports the failure, as a durable log whose
// fsync failed would.
type commitFailLog struct {
	wal.Log
	nth     int64
	commits atomic.Int64
}

func (l *commitFailLog) Append(r *wal.Record) (uint64, error) {
	lsn, err := l.Log.Append(r)
	if err == nil && r.Type == wal.TypeCommit && l.commits.Add(1) == l.nth {
		return 0, errInjected
	}
	return lsn, err
}

// TestParticipantCommitFailureCounted: when a participant's commit record
// cannot be made durable, the commit decision counts it in CommitErrors and ends
// its commit span with the error; the cascade below it still runs, since
// the origin has decided.
func TestParticipantCommitFailureCounted(t *testing.T) {
	ring := obs.NewRing(0)
	c := newCluster(t)
	c.sink = ring
	c.setup = func(id p2p.PeerID, tr p2p.Transport, _ *Options) (p2p.Transport, wal.Log) {
		if id == "AP3" {
			return tr, &commitFailLog{Log: wal.NewMemory(), nth: 2}
		}
		return tr, wal.NewMemory()
	}
	f := buildFig1(t, c, "")
	var last *Context
	for i := 0; i < 2; i++ {
		last = f.origin.Begin()
		if _, err := f.origin.Exec(bg, last, f.q); err != nil {
			t.Fatal(err)
		}
		if err := f.origin.Commit(bg, last); err != nil {
			t.Fatal(err)
		}
	}
	for id, p := range f.peers {
		want := int64(0)
		if id == "AP3" {
			want = 1
		}
		if n := p.Metrics().CommitErrors.Load(); n != want {
			t.Errorf("%s: CommitErrors = %d, want %d", id, n, want)
		}
	}
	sp := findSpan(ring.Trace(last.ID), byKind(obs.KindCommit, "AP3", ""))
	if sp == nil || sp.Outcome != obs.OutcomeError {
		t.Fatalf("AP3 commit span = %+v, want an error outcome", sp)
	}
	for _, id := range []p2p.PeerID{"AP4", "AP5", "AP6"} {
		if !wal.Fold(f.peers[id].Store().Log().TxnRecords(last.ID)).Committed {
			t.Errorf("%s never committed: the cascade stopped at AP3", id)
		}
	}
}
