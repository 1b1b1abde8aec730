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
	"sync"

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

// decision reports whether t records a decision: a commit, an abort or a
// completed compensation. A durable log returns from Append of a decision
// whose transaction already has a record in that log only once the
// record, and every record before it, is on disk. A decision with no such
// record settles a transaction with nothing to compensate, so it is not
// forced (R*'s read-only optimisation, applied to the force).
func (t Type) decision() bool {
	return t == TypeCommit || t == TypeAbort || t == TypeCompensateEnd
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
	// explicit durability barrier the engine places before a served
	// invocation's reply leaves the peer; in-memory logs treat it as a no-op.
	Sync() error
	// Close releases resources; Append after Close errors.
	Close() error
}

// Typed error classes. Callers branch with errors.Is rather than matching
// raw *os.PathError strings.
var (
	// ErrClosed is returned by Append on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrSync classes every fsync failure (the group commit leader that a
	// forced decision Append or the Sync barrier waits on, rotation,
	// checkpoint). Durability past a failed fsync is unknown, so it is
	// sticky: every later forced decision Append and Sync returns it.
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

// SyncMode once selected among three fsync strategies. Group commit is
// now the only one, so nothing reads it.
//
// Deprecated: read by no code. It stays until the last composite literal
// naming FileOptions{Sync: SyncGroup} is gone.
type SyncMode uint8

// SyncGroup names group commit, the only durability behaviour.
//
// Deprecated: see SyncMode.
const SyncGroup SyncMode = 2

// FileOptions is embedded in SegmentOptions.
//
// Deprecated: read by no code; see SyncMode.
type FileOptions struct {
	// Deprecated: ignored.
	Sync SyncMode
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
