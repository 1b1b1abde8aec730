// Package wal implements the per-peer operation log that makes dynamic
// compensation possible.
//
// The paper's key observation (§3.1) is that the data needed to compensate
// an AXML operation cannot be predicted in advance: the nodes a delete
// removes, the ID an insert produces, the old value a replace overwrites and
// the set of service calls a lazy query materializes are all run-time facts.
// The log records exactly those facts — the results of <location> queries of
// delete operations, inserted node IDs, replaced before-images — so the
// compensating operation can be constructed when (and only if) it is needed.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"axmltx/internal/codec"
)

// Type discriminates log records.
type Type uint8

const (
	// TypeBegin marks the start of a transaction (or of a local
	// sub-transaction context on a participant peer).
	TypeBegin Type = iota + 1
	// TypeInsert records an insertion: the new subtree's root NodeID, its
	// parent and position, and the inserted XML.
	TypeInsert
	// TypeDelete records a deletion with full before-image: the deleted
	// subtree's XML, its former parent and position.
	TypeDelete
	// TypeSetText records an in-place text change with old and new value.
	TypeSetText
	// TypeMaterialize brackets the structural effects of one service-call
	// materialization (the effects themselves are Insert/Delete records);
	// it names the service so query compensation is explainable.
	TypeMaterialize
	// TypeCommit marks local commit of a transaction context.
	TypeCommit
	// TypeAbort marks local abort of a transaction context.
	TypeAbort
	// TypeCompensateBegin marks the start of compensation for a
	// transaction, so crash recovery does not re-compensate compensation.
	TypeCompensateBegin
	// TypeCompensateEnd marks completed compensation.
	TypeCompensateEnd
)

func (t Type) String() string {
	switch t {
	case TypeBegin:
		return "begin"
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	case TypeSetText:
		return "settext"
	case TypeMaterialize:
		return "materialize"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeCompensateBegin:
		return "compensate-begin"
	case TypeCompensateEnd:
		return "compensate-end"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one log entry. Field use depends on Type; unused fields are
// zero.
type Record struct {
	LSN  uint64
	Txn  string // transaction ID
	Type Type
	Doc  string // document name the operation touched

	NodeID   uint64 // subject node (inserted root, deleted root, text node)
	ParentID uint64 // parent at time of operation (insert/delete)
	Pos      int    // child position at time of operation (insert/delete)
	Nodes    int    // size of the inserted or deleted subtree (insert/delete)

	XML     string // inserted subtree (insert) or before-image (delete)
	OldText string // previous value (settext)
	NewText string // new value (settext)

	Service string // materialize: service name
}

// String renders a compact human-readable form for diagnostics.
func (r *Record) String() string {
	return fmt.Sprintf("[%d %s %s doc=%s node=%d]", r.LSN, r.Txn, r.Type, r.Doc, r.NodeID)
}

// Log is an append-only record store. Implementations are safe for
// concurrent use.
type Log interface {
	// Append assigns the next LSN to r, stores it and returns the LSN.
	Append(r *Record) (uint64, error)
	// Records returns a snapshot of all records in LSN order.
	Records() []*Record
	// TxnRecords returns the records of one transaction in LSN order.
	TxnRecords(txn string) []*Record
	// Sync blocks until every record appended so far is durable. It is the
	// explicit durability barrier the engine places at TypeCommit/TypeAbort
	// records; in-memory logs treat it as a no-op.
	Sync() error
	// Close releases resources; Append after Close errors.
	Close() error
}

// Typed error classes. Callers branch with errors.Is rather than matching
// raw *os.PathError strings.
var (
	// ErrClosed is returned by Append on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrSync classes every fsync failure (Append under SyncEach, the group
	// commit leader, the explicit Sync barrier, rotation). Durability past a
	// failed fsync is unknown, so these are sticky where it matters.
	ErrSync = errors.New("wal: sync failed")
	// ErrCorrupt classes every framing or decode failure: torn tails, CRC
	// mismatches, malformed record bodies.
	ErrCorrupt = errors.New("wal: corrupt frame")
	// ErrClose classes failures releasing the underlying file.
	ErrClose = errors.New("wal: close failed")
)

// MemoryLog is an in-memory Log, the default for simulation and tests.
type MemoryLog struct {
	mu      sync.Mutex
	records []*Record
	byTxn   map[string][]*Record
	next    uint64
	closed  bool
}

// NewMemory returns an empty in-memory log.
func NewMemory() *MemoryLog {
	return &MemoryLog{byTxn: make(map[string][]*Record)}
}

// Append implements Log.
func (l *MemoryLog) Append(r *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	l.next++
	r.LSN = l.next
	cp := *r
	l.records = append(l.records, &cp)
	l.byTxn[r.Txn] = append(l.byTxn[r.Txn], &cp)
	return r.LSN, nil
}

// Records implements Log.
func (l *MemoryLog) Records() []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Record(nil), l.records...)
}

// TxnRecords implements Log.
func (l *MemoryLog) TxnRecords(txn string) []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Record(nil), l.byTxn[txn]...)
}

// Sync implements Log; an in-memory log has no durability to wait for.
func (l *MemoryLog) Sync() error { return nil }

// Close implements Log.
func (l *MemoryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// appendExisting stores a record that already carries its LSN (replay from
// a file or a checkpoint, where LSNs may be gapped); the next Append
// continues after the highest LSN seen.
func (l *MemoryLog) appendExisting(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	cp := *r
	l.records = append(l.records, &cp)
	l.byTxn[r.Txn] = append(l.byTxn[r.Txn], &cp)
	if r.LSN > l.next {
		l.next = r.LSN
	}
	return nil
}

// Len returns the number of records.
func (l *MemoryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// SyncMode selects a FileLog's durability strategy.
type SyncMode uint8

const (
	// SyncNone leaves flushing to the OS; the explicit Sync() barrier at
	// commit records is the only forced flush (relaxed durability:
	// mid-transaction records may be lost in a crash, commits are not).
	SyncNone SyncMode = iota
	// SyncEach fsyncs every append before returning — full per-record
	// durability at the cost of one fsync per record.
	SyncEach
	// SyncGroup batches concurrent appenders behind one fsync (group
	// commit): every Append still returns only after its record is durable,
	// but appenders arriving while an fsync is in flight share the next one,
	// so N concurrent writers amortize the fsync cost.
	SyncGroup
)

// FileOptions configure OpenFileWith.
type FileOptions struct {
	// Sync selects the durability strategy; the zero value is SyncNone.
	Sync SyncMode
	// GroupCommitWindow (SyncGroup only) is how long the flusher waits
	// after waking, to accumulate a batch before fsyncing. Zero syncs
	// immediately — batching then arises naturally from appenders queueing
	// behind an in-flight fsync.
	GroupCommitWindow time.Duration
}

// FileLog is a durable Log backed by a file of framed records. Each record
// is an independently encoded blob framed as
//
//	uint32 length | uint32 crc32(blob) | blob
//
// so the file survives process restarts (no cross-session encoder state)
// and Open detects a torn or corrupted tail by length/CRC mismatch and
// truncates it — the standard write-ahead-log recovery contract. A frame
// whose body is not a version-4 record (see DecodeRecord) counts as corrupt.
type FileLog struct {
	mu    sync.Mutex
	f     *os.File
	opts  FileOptions
	next  uint64
	mem   *MemoryLog // index over already-read + appended records
	close bool

	// Group-commit state (SyncGroup), leader/follower: the first appender to
	// find no fsync in flight becomes the leader and syncs on behalf of
	// everyone whose frame is already in the file; appenders arriving while
	// the leader syncs wait on gcond and are either covered by that fsync or
	// elect the next leader. No dedicated goroutine, no handoff latency.
	gmu     sync.Mutex
	gcond   *sync.Cond
	written uint64 // highest LSN whose frame is in the file
	synced  uint64 // highest LSN known durable
	gerr    error  // sticky fsync failure; durability state unknown past it
	syncing bool   // a leader's fsync is in flight
	gclosed bool   // Close started; no further fsyncs
}

// OpenFile opens (creating if needed) a file-backed log. With sync true,
// every append is fsynced before returning — full durability at the cost of
// latency, matching the D in ACID; with sync false the OS flushes lazily.
func OpenFile(path string, sync bool) (*FileLog, error) {
	mode := SyncNone
	if sync {
		mode = SyncEach
	}
	return OpenFileWith(path, FileOptions{Sync: mode})
}

// OpenFileWith opens (creating if needed) a file-backed log with explicit
// durability options.
func OpenFileWith(path string, opts FileOptions) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &FileLog{f: f, opts: opts, mem: NewMemory()}
	br := bufio.NewReader(f)
	var validEnd int64
	for {
		blob, n, err := readFrame(br)
		var r *Record
		if err == nil {
			r, err = DecodeRecord(blob)
		}
		if err != nil {
			if err != io.EOF {
				// Torn or corrupt tail: keep the clean prefix.
				if terr := f.Truncate(validEnd); terr != nil {
					f.Close()
					return nil, fmt.Errorf("wal: truncate torn tail: %w", terr)
				}
			}
			break
		}
		if err := l.mem.appendExisting(r); err != nil {
			f.Close()
			return nil, err
		}
		l.next = r.LSN
		validEnd += int64(n)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	if opts.Sync == SyncGroup {
		l.written, l.synced = l.next, l.next
		l.gcond = sync.NewCond(&l.gmu)
	}
	return l, nil
}

// readFrame reads one framed blob and returns it with the number of bytes
// consumed. Any framing violation (short read, CRC mismatch) is reported as
// a non-EOF error wrapping ErrCorrupt so the caller truncates; decoding the
// blob is the caller's business (record vs checkpoint body).
func readFrame(br *bufio.Reader) ([]byte, int, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: short frame header: %w", ErrCorrupt, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > 1<<30 {
		return nil, 0, fmt.Errorf("%w: implausible frame length %d", ErrCorrupt, length)
	}
	blob := make([]byte, length)
	if _, err := io.ReadFull(br, blob); err != nil {
		return nil, 0, fmt.Errorf("%w: short frame body: %w", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(blob) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return blob, 8 + int(length), nil
}

// frameHeaderZero seeds the 8-byte header placeholder without a per-append
// allocation; the real header is patched in after the body is encoded.
var frameHeaderZero [8]byte

// appendFrame encodes body into w as a complete CRC frame.
func appendFrame(w *codec.Writer, body func(*codec.Writer)) []byte {
	w.Raw(frameHeaderZero[:])
	body(w)
	frame := w.Bytes()
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-8))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

// Append implements Log.
func (l *FileLog) Append(r *Record) (uint64, error) {
	w := codec.GetWriter()
	defer codec.PutWriter(w)

	l.mu.Lock()
	if l.close {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	l.next++
	r.LSN = l.next
	frame := appendFrame(w, func(w *codec.Writer) { appendRecordBinary(w, r) })
	if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: write frame: %w", err)
	}
	if l.opts.Sync == SyncEach {
		if err := l.f.Sync(); err != nil {
			l.mu.Unlock()
			return 0, fmt.Errorf("%w: %w", ErrSync, err)
		}
	}
	// Mirror into the in-memory index with the LSN just assigned.
	if err := l.mem.appendExisting(r); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := r.LSN
	l.mu.Unlock()

	if l.opts.Sync == SyncGroup {
		// The frame is written in LSN order under l.mu, so it — and every
		// earlier frame — is in the file; wait for a covering fsync.
		if err := l.waitDurable(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// waitDurable blocks until an fsync covering lsn completed (group commit).
// The first caller to find no fsync in flight becomes the leader: it syncs
// once for every frame already in the file, then wakes the rest; followers
// re-check and either return (covered) or elect the next leader.
func (l *FileLog) waitDurable(lsn uint64) error {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	if lsn > l.written {
		l.written = lsn
	}
	for {
		if l.gerr != nil {
			// A failed fsync leaves durability unknown; fail everything from
			// here on rather than pretend.
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
			if w := l.opts.GroupCommitWindow; w > 0 {
				// Accumulate a batch before snapshotting the target.
				l.gmu.Unlock()
				time.Sleep(w)
				l.gmu.Lock()
			}
			target := l.written
			l.gmu.Unlock()
			err := l.f.Sync()
			l.gmu.Lock()
			l.syncing = false
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

// Sync implements Log: an explicit durability barrier over everything
// appended so far. Under SyncEach every record is already durable; under
// SyncGroup it shares the group fsync; under SyncNone it is the one forced
// flush — the engine calls it at TypeCommit/TypeAbort records so commit
// durability is identical across modes.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	if l.close {
		l.mu.Unlock()
		return ErrClosed
	}
	last := l.next
	if l.opts.Sync != SyncGroup {
		err := l.f.Sync()
		l.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %w", ErrSync, err)
		}
		return nil
	}
	l.mu.Unlock()
	if last == 0 {
		return nil
	}
	return l.waitDurable(last)
}

// Records implements Log.
func (l *FileLog) Records() []*Record { return l.mem.Records() }

// TxnRecords implements Log.
func (l *FileLog) TxnRecords(txn string) []*Record { return l.mem.TxnRecords(txn) }

// Close implements Log.
func (l *FileLog) Close() error {
	l.mu.Lock()
	if l.close {
		l.mu.Unlock()
		return nil
	}
	l.close = true
	l.mu.Unlock()
	if l.opts.Sync == SyncGroup {
		// Stop group commit: fail waiters not covered by the in-flight
		// fsync, and wait that fsync out before closing the file under it.
		l.gmu.Lock()
		l.gclosed = true
		l.gcond.Broadcast()
		for l.syncing {
			l.gcond.Wait()
		}
		l.gmu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("%w: %w", ErrClose, err)
	}
	return nil
}
