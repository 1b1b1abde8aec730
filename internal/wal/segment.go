package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"axmltx/internal/codec"
)

// SegmentOptions configure OpenDir.
type SegmentOptions struct {
	// Deprecated: read by no code; see SyncMode.
	FileOptions
	// MaxSegmentBytes rotates the active segment once it holds at least
	// this many bytes; 0 means the 4 MiB default.
	MaxSegmentBytes int64
	// CheckpointEvery runs an automatic checkpoint + compaction in the
	// background after this many appends since the last checkpoint; 0 means
	// checkpoints are taken only by explicit Checkpoint calls.
	CheckpointEvery int
}

// DefaultMaxSegmentBytes is the rotation threshold when none is configured.
const DefaultMaxSegmentBytes = 4 << 20

// segmentName renders the file name of segment n. Segments are named by a
// monotonic segment number — not by first LSN, which could collide when a
// checkpoint rotates without intervening appends.
func segmentName(n uint64) string { return fmt.Sprintf("%08d.seg", n) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "%08d.seg", &n); err != nil || segmentName(n) != name {
		return 0, false
	}
	return n, true
}

// SegmentedLog is the durable Log: a directory of segment files holding
// CRC frames
//
//	uint32 length | uint32 crc32(blob) | blob
//
// each blob encoded on its own (see DecodeRecord), so a file survives
// process restarts (no cross-session encoder state) and a torn or corrupted
// tail is detected by length/CRC mismatch and truncated away — the standard
// write-ahead-log recovery contract. On top of the frames it adds:
//
//   - rotation: the active segment is closed and a new one started once it
//     holds MaxSegmentBytes;
//   - checkpoints: a rotation that writes, as the first frame of the fresh
//     segment, a snapshot of every live (unresolved) transaction's records
//     plus the highest LSN, so replay restarts from the snapshot instead of
//     the full history;
//   - compaction: deleting every segment older than the latest durable
//     checkpoint, whose state the checkpoint wholly covers.
//
// Append writes the frame and returns without waiting for the disk, except
// for a decision record (TypeCommit, TypeAbort, TypeCompensateEnd) of a
// transaction that already has a record in this log, which returns only
// once it and every earlier record are durable. A decision with no earlier
// record of its transaction closes a transaction with nothing to
// compensate, so restart reads nothing from it; it is written in LSN order
// and made durable by the next forced write. Sync is the explicit barrier.
// Both wait through one group commit, so concurrent waiters share an fsync.
// A Log decorator therefore sees a forced decision durable when its Append
// returns.
//
// Only the last segment can have a torn tail: rotation fsyncs a segment
// before opening its successor, so every non-last segment is fully durable.
// A transaction is live while its TxnState is Pending — exactly the
// transactions core.RecoverPending would still act on.
type SegmentedLog struct {
	mu       sync.Mutex
	dir      string // segment directory
	opts     SegmentOptions
	f        *os.File // active segment
	segnum   uint64   // active segment number
	nsegs    int      // segment files on disk
	segBytes int64    // bytes in the active segment
	next     uint64   // last assigned LSN
	mem      *MemoryLog
	sinceCk  int        // appends since the last checkpoint
	minSeg   uint64     // lowest segment file on disk (compaction floor)
	ckSeg    uint64     // segment whose head holds the latest durable checkpoint (0: none)
	ckBusy   bool       // background checkpoint in flight
	ckDone   *sync.Cond // signals ckBusy clearing (Close waits on it)
	closed   bool
	onComp   func(removed, remaining int, err error)
	fsyncs   atomic.Uint64 // fsyncs issued: group commit, rotation, checkpoint frame, directory

	// Group commit, leader/follower: the first waiter to find no fsync in
	// flight becomes the leader and syncs on behalf of everyone whose frame
	// is already in the file; waiters arriving meanwhile wait on gcond and
	// are either covered by that fsync or elect the next leader. No
	// dedicated goroutine, no handoff latency. A leader snapshots the
	// active file and the rotation generation gen under gmu; if rotation
	// bumped gen while its fsync was in flight, the outcome is discarded
	// (rotation's own fsync already covered the old segment, and an fsync
	// error on the just-closed handle is expected noise).
	gmu     sync.Mutex
	gcond   *sync.Cond
	gf      *os.File // active file as seen by group commit
	gen     uint64   // bumped by every rotation
	written uint64   // highest LSN a waiter asked to make durable
	synced  uint64   // highest LSN known durable
	gerr    error    // sticky fsync failure; durability past it is unknown
	syncing bool     // a leader's fsync is in flight
	gclosed bool     // Close started; no further fsyncs
}

// OpenDir opens (creating if needed) a segmented log in dir. Existing
// segments are scanned in order; replay state resets at each segment-head
// checkpoint; a torn tail in the last segment is truncated away (earlier
// segments are always fully durable, so corruption there is an error).
func OpenDir(dir string, opts SegmentOptions) (*SegmentedLog, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	var segs []uint64
	for _, e := range names {
		if n, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	l := &SegmentedLog{dir: dir, opts: opts, mem: NewMemory()}
	l.ckDone = sync.NewCond(&l.mu)
	l.gcond = sync.NewCond(&l.gmu)
	for i, n := range segs {
		// The last segment stays open as the active one.
		last := i == len(segs)-1
		flag := os.O_RDONLY
		if last {
			flag = os.O_RDWR
		}
		f, err := os.OpenFile(filepath.Join(dir, segmentName(n)), flag, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		if err := l.replay(f, n, last); err != nil {
			f.Close()
			return nil, err
		}
		if !last {
			f.Close()
			continue
		}
		l.f, l.segnum = f, n
	}
	if len(segs) == 0 {
		f, err := l.createSegment(1)
		if err != nil {
			return nil, err
		}
		l.f, l.segnum = f, 1
		segs = append(segs, 1)
	}
	l.nsegs, l.minSeg = len(segs), segs[0]
	// Everything replay read is on disk, and the active file is the one
	// group commit fsyncs.
	l.gf = l.f
	l.written, l.synced = l.next, l.next
	return l, nil
}

// replay reads segment file f (number n) into the in-memory index. A
// checkpoint frame at the head of a segment resets the index to the
// snapshot. last marks the final segment, the only one allowed a torn tail;
// when the tail is torn, the file is truncated to the valid prefix. For the
// last segment, segBytes describes the valid prefix afterwards and f is
// positioned at its end, ready for appends.
func (l *SegmentedLog) replay(f *os.File, n uint64, last bool) error {
	br := bufio.NewReader(f)
	var validEnd int64
	first := true
	var ferr error
	for {
		blob, nb, err := readFrame(br)
		if err != nil {
			ferr = err
			break
		}
		if first && len(blob) > 0 && blob[0] == blobCheckpoint {
			ck, err := decodeCheckpoint(blob)
			if err != nil {
				ferr = err
				break
			}
			nm := NewMemory()
			for _, r := range ck.Live {
				if err := nm.appendExisting(r); err != nil {
					return err
				}
			}
			if ck.LastLSN > nm.next {
				nm.next = ck.LastLSN
			}
			l.mem = nm
			l.next = ck.LastLSN
			l.ckSeg = n
		} else {
			r, err := DecodeRecord(blob)
			if err != nil {
				ferr = err
				break
			}
			if err := l.mem.appendExisting(r); err != nil {
				return err
			}
			if r.LSN > l.next {
				l.next = r.LSN
			}
		}
		first = false
		validEnd += int64(nb)
	}
	if ferr != io.EOF {
		if !last {
			return fmt.Errorf("wal: segment %s: %w", segmentName(n), ferr)
		}
		// Torn or corrupt tail of the final segment: keep the clean prefix.
		if err := f.Truncate(validEnd); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if last {
		if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
			return fmt.Errorf("wal: seek: %w", err)
		}
		l.segBytes = validEnd
	}
	return nil
}

// createSegment creates segment file n, refusing to overwrite one that
// exists, and makes its directory entry durable.
func (l *SegmentedLog) createSegment(n uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(n)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	l.syncDir()
	return f, nil
}

// syncDir fsyncs the segment directory so freshly created or removed
// segment files survive a crash. Best effort: not every platform supports
// it.
func (l *SegmentedLog) syncDir() {
	if d, err := os.Open(l.dir); err == nil {
		l.fsyncs.Add(1)
		_ = d.Sync()
		_ = d.Close()
	}
}

// Fsyncs returns the number of fsyncs the log has issued since OpenDir:
// group-commit leaders, rotations, checkpoint frames and directory syncs.
func (l *SegmentedLog) Fsyncs() uint64 { return l.fsyncs.Load() }

// rotateLocked fsyncs the active segment and swaps in its successor.
// Caller holds l.mu. After it returns, every record appended so far is
// durable (rotation is itself a durability barrier), which is what lets
// non-last segments be trusted during replay. The successor is created
// before anything is swapped, so a failed create leaves the old segment
// active and intact, and the next Append retries the rotation.
func (l *SegmentedLog) rotateLocked() error {
	l.fsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		err = fmt.Errorf("%w: rotate: %w", ErrSync, err)
		l.failGroupLocked(err)
		return err
	}
	// Every record appended so far is durable now. Release its waiters
	// before creating the successor, so none of them runs a redundant
	// fsync beside the directory sync.
	l.gmu.Lock()
	if l.next > l.synced {
		l.synced = l.next
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
	next, err := l.createSegment(l.segnum + 1)
	if err != nil {
		return err
	}
	// Swap under gmu: a group-commit leader must never be able to snapshot
	// the old handle paired with the new generation, or its doomed fsync
	// on the closed file would poison the group.
	l.gmu.Lock()
	old := l.f
	l.f, l.gf = next, next
	l.segnum++
	l.segBytes = 0
	l.nsegs++
	l.gen++
	l.gmu.Unlock()
	if err := old.Close(); err != nil {
		return fmt.Errorf("%w: rotate: %w", ErrClose, err)
	}
	return nil
}

// failGroupLocked poisons group commit after a failure that leaves
// durability unknown, so waiters do not report durability that was never
// established.
func (l *SegmentedLog) failGroupLocked(err error) {
	l.gmu.Lock()
	if l.gerr == nil {
		l.gerr = err
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
}

// writeLocked appends frame to the active segment. Caller holds l.mu. A
// failed write can leave part of the frame in the file; it is cut off
// again, because the next frame would otherwise land behind a tear and
// replay, which stops at the first torn frame, would drop it and every
// later record, durable or not. If the cut fails too, the log is poisoned
// as after a failed fsync.
func (l *SegmentedLog) writeLocked(frame []byte) error {
	if _, err := l.f.Write(frame); err != nil {
		err = fmt.Errorf("wal: write frame: %w", err)
		if terr := l.f.Truncate(l.segBytes); terr != nil {
			l.failGroupLocked(fmt.Errorf("%w: %w; cutting the torn frame: %w", ErrSync, err, terr))
		} else if _, serr := l.f.Seek(l.segBytes, io.SeekStart); serr != nil {
			l.failGroupLocked(fmt.Errorf("%w: %w; seeking past the cut: %w", ErrSync, err, serr))
		}
		return err
	}
	l.segBytes += int64(len(frame))
	return nil
}

// Append implements Log. The frame is written under l.mu, in LSN order, so
// a durable record implies every earlier one is durable too. Only a
// decision record whose transaction already has a record in the index
// waits for the disk.
func (l *SegmentedLog) Append(r *Record) (uint64, error) {
	w := codec.GetWriter()
	defer codec.PutWriter(w)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.segBytes >= l.opts.MaxSegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	r.LSN = l.next + 1
	frame := appendFrame(w, func(w *codec.Writer) { appendRecordBinary(w, r) })
	if err := l.writeLocked(frame); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.next = r.LSN
	// The index holds every record of a Pending transaction across a
	// checkpoint trim, so a transaction with effects always finds them
	// here. l.mu serialises every write to l.mem, so the read is safe.
	force := r.Type.decision() && len(l.mem.byTxn[r.Txn]) > 0
	if err := l.mem.appendExisting(r); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := r.LSN
	l.sinceCk++
	kick := l.opts.CheckpointEvery > 0 && l.sinceCk >= l.opts.CheckpointEvery && !l.ckBusy
	if kick {
		l.ckBusy = true
	}
	l.mu.Unlock()

	if kick {
		go l.backgroundCheckpoint()
	}
	if force {
		if err := l.waitDurable(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// backgroundCheckpoint is the compactor: checkpoint, then drop the
// segments the checkpoint covers. A failure goes to the SetOnCompact hook,
// and the next attempt waits for another CheckpointEvery appends.
func (l *SegmentedLog) backgroundCheckpoint() {
	removed, err := 0, l.Checkpoint()
	if err == nil {
		removed, err = l.Compact()
	}
	if err != nil {
		l.mu.Lock()
		l.sinceCk = 0
		cb, remaining := l.onComp, l.nsegs
		l.mu.Unlock()
		if cb != nil {
			cb(removed, remaining, err)
		}
	}
	l.mu.Lock()
	l.ckBusy = false
	l.ckDone.Broadcast()
	l.mu.Unlock()
}

// waitDurable blocks until an fsync covering lsn completed (group commit;
// see the SegmentedLog field comments).
func (l *SegmentedLog) waitDurable(lsn uint64) error {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	if lsn > l.written {
		l.written = lsn
	}
	for {
		if l.gerr != nil {
			return l.gerr
		}
		if l.synced >= lsn {
			return nil
		}
		if l.gclosed {
			return ErrClosed
		}
		if !l.syncing {
			l.syncing = true
			target := l.written
			f, gen := l.gf, l.gen
			l.gmu.Unlock()
			l.fsyncs.Add(1)
			err := f.Sync()
			l.gmu.Lock()
			l.syncing = false
			if gen != l.gen {
				// Rotation superseded this fsync: its own fsync covered every
				// frame the old segment held, and err (if any) is the expected
				// failure of syncing a just-closed handle. Re-evaluate.
				l.gcond.Broadcast()
				continue
			}
			if err != nil {
				l.gerr = fmt.Errorf("%w: %w", ErrSync, err)
			} else if target > l.synced {
				l.synced = target
			}
			l.gcond.Broadcast()
			continue
		}
		l.gcond.Wait()
	}
}

// liveRecordsLocked returns, in LSN order, every record of each transaction
// whose TxnState is Pending: exactly the transactions restart recovery would
// still compensate. A participant compensated and then re-invoked has a
// completed bracket and effects after it; it stays live.
func (l *SegmentedLog) liveRecordsLocked() []*Record {
	live := make(map[string]bool)
	for _, txn := range PendingTxns(l.mem.records) {
		live[txn] = true
	}
	var out []*Record
	for _, r := range l.mem.records {
		if live[r.Txn] {
			out = append(out, r)
		}
	}
	return out
}

// Checkpoint rotates to a fresh segment whose first frame snapshots the
// live transactions and the highest LSN, fsyncing it before returning:
// once Checkpoint succeeds, every older segment is redundant and Compact
// may delete it. Replay after a checkpoint is O(live transactions), not
// O(history); the in-memory index is trimmed to the same view so memory is
// bounded too.
func (l *SegmentedLog) Checkpoint() error {
	w := codec.GetWriter()
	defer codec.PutWriter(w)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	live := l.liveRecordsLocked()
	if err := l.rotateLocked(); err != nil {
		return err
	}
	frame := appendFrame(w, func(w *codec.Writer) {
		appendCheckpoint(w, &checkpoint{LastLSN: l.next, Live: live})
	})
	if err := l.writeLocked(frame); err != nil {
		return err
	}
	// The checkpoint must be durable before it can license compaction.
	l.fsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		err = fmt.Errorf("%w: checkpoint: %w", ErrSync, err)
		l.failGroupLocked(err)
		return err
	}
	l.ckSeg = l.segnum
	l.sinceCk = 0

	// Trim the index to the snapshot view — identical to what a restart
	// would replay.
	nm := NewMemory()
	for _, r := range live {
		if err := nm.appendExisting(r); err != nil {
			return err
		}
	}
	nm.next = l.next
	l.mem = nm
	return nil
}

// Compact deletes every segment older than the latest durable checkpoint's
// segment and returns how many were removed. Safe to call at any time; a
// crash mid-compaction just leaves leftover segments whose content the
// next replay supersedes at the checkpoint.
func (l *SegmentedLog) Compact() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.ckSeg == 0 {
		return 0, nil
	}
	// Walk the floor up to the checkpoint segment, tolerating holes: a
	// crash mid-compaction leaves an arbitrary subset already deleted, and
	// the survivors must still be reclaimed on the next pass.
	removed := 0
	for n := l.minSeg; n < l.ckSeg; n++ {
		err := os.Remove(filepath.Join(l.dir, segmentName(n)))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			l.minSeg = n
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		removed++
	}
	l.minSeg = l.ckSeg
	if removed > 0 {
		l.syncDir()
		l.nsegs -= removed
	}
	if cb := l.onComp; cb != nil && removed > 0 {
		remaining := l.nsegs
		l.mu.Unlock()
		cb(removed, remaining, nil)
		l.mu.Lock()
	}
	return removed, nil
}

// Segments returns the number of segment files currently on disk.
func (l *SegmentedLog) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nsegs
}

// SetOnCompact installs a hook invoked after each compaction that removed
// at least one segment, with the removed and remaining counts and a nil
// error, and after each failed background checkpoint or compaction, with
// the error. Used by the engine to emit the wal-compact span and count the
// failures without wal importing obs.
func (l *SegmentedLog) SetOnCompact(fn func(removed, remaining int, err error)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onComp = fn
}

// Records implements Log. After a checkpoint the snapshot view is
// returned: live transactions' records plus everything appended since —
// exactly what a restart would replay (LSNs may be gapped).
func (l *SegmentedLog) Records() []*Record { return l.memSnapshot().Records() }

// TxnRecords implements Log.
func (l *SegmentedLog) TxnRecords(txn string) []*Record { return l.memSnapshot().TxnRecords(txn) }

// memSnapshot returns the current index under l.mu (checkpointing swaps
// the index wholesale).
func (l *SegmentedLog) memSnapshot() *MemoryLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mem
}

// Sync implements Log: the explicit durability barrier over every record
// appended before the call. It shares the group fsync.
func (l *SegmentedLog) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	last := l.next
	l.mu.Unlock()
	return l.waitDurable(last)
}

// Close implements Log. A kicked background checkpoint runs to completion
// first — ckDone.Wait reacquires l.mu, so no new kick can slip in between
// the busy flag clearing and closed being set.
func (l *SegmentedLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.ckBusy {
		l.ckDone.Wait()
	}
	l.closed = true
	l.mu.Unlock()
	// Stop group commit: fail waiters not covered by the in-flight fsync,
	// and wait that fsync out before closing the file under it.
	l.gmu.Lock()
	l.gclosed = true
	l.gcond.Broadcast()
	for l.syncing {
		l.gcond.Wait()
	}
	l.gmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("%w: %w", ErrClose, err)
	}
	return nil
}
