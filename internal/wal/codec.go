package wal

import (
	"fmt"

	"axmltx/internal/codec"
)

// Record bodies inside CRC frames open with a version byte: 4 is a record
// (varint framing over internal/codec), 3 a checkpoint (only as the first
// frame of a segment). Any other first byte — including the retired record version 2,
// which lacked Nodes — is ErrCorrupt.
const (
	blobCheckpoint = 0x03
	blobRecord     = 0x04
)

// appendRecordBinary appends the version-4 binary encoding of r to w.
func appendRecordBinary(w *codec.Writer, r *Record) {
	w.Byte(blobRecord)
	w.Uvarint(r.LSN)
	w.String(r.Txn)
	w.Byte(byte(r.Type))
	w.String(r.Doc)
	w.Uvarint(r.NodeID)
	w.Uvarint(r.ParentID)
	w.Varint(int64(r.Pos))
	w.Varint(int64(r.Nodes))
	w.String(r.XML)
	w.String(r.OldText)
	w.String(r.NewText)
	w.String(r.Service)
}

// readRecordBinary decodes the fields following the version byte. Strings
// alias blob (frame bodies are freshly allocated per frame and never
// recycled, so the aliasing is safe and keeps replay allocation-free beyond
// the frame read itself).
func readRecordBinary(rd *codec.Reader) *Record {
	r := &Record{}
	r.LSN = rd.Uvarint()
	r.Txn = rd.String()
	r.Type = Type(rd.Byte())
	r.Doc = rd.String()
	r.NodeID = rd.Uvarint()
	r.ParentID = rd.Uvarint()
	r.Pos = int(rd.Varint())
	r.Nodes = int(rd.Varint())
	r.XML = rd.String()
	r.OldText = rd.String()
	r.NewText = rd.String()
	r.Service = rd.String()
	return r
}

// DecodeRecord decodes one record frame body. The error wraps ErrCorrupt.
func DecodeRecord(blob []byte) (*Record, error) {
	if len(blob) == 0 || blob[0] != blobRecord {
		return nil, fmt.Errorf("%w: frame body is not a version-%d record", ErrCorrupt, blobRecord)
	}
	rd := codec.NewReader(blob[1:])
	r := readRecordBinary(rd)
	if err := rd.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return r, nil
}

// EncodeRecord renders the body of r (no CRC frame), exported for the codec
// benchmarks and fuzz target.
func EncodeRecord(r *Record) []byte {
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	appendRecordBinary(w, r)
	return w.Finish()
}

// checkpoint is the live-transaction snapshot written at the head of a
// fresh segment: the highest LSN assigned so far and the full record lists
// of every transaction that is still unresolved, in LSN order. Replay that
// starts at a checkpoint is therefore O(live transactions), not O(history).
type checkpoint struct {
	LastLSN uint64
	Live    []*Record
}

// appendCheckpoint appends the version-3 checkpoint body.
func appendCheckpoint(w *codec.Writer, ck *checkpoint) {
	w.Byte(blobCheckpoint)
	w.Uvarint(ck.LastLSN)
	w.Uvarint(uint64(len(ck.Live)))
	for _, r := range ck.Live {
		appendRecordBinary(w, r)
	}
}

// decodeCheckpoint decodes a version-3 blob (including the version byte).
func decodeCheckpoint(blob []byte) (*checkpoint, error) {
	if len(blob) == 0 || blob[0] != blobCheckpoint {
		return nil, fmt.Errorf("%w: not a checkpoint frame", ErrCorrupt)
	}
	rd := codec.NewReader(blob[1:])
	ck := &checkpoint{LastLSN: rd.Uvarint()}
	n := rd.Count(13) // a binary record body is ≥ 13 bytes
	for i := 0; i < n; i++ {
		if v := rd.Byte(); v != blobRecord {
			return nil, fmt.Errorf("%w: checkpoint record %d has version %d", ErrCorrupt, i, v)
		}
		ck.Live = append(ck.Live, readRecordBinary(rd))
	}
	if err := rd.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return ck, nil
}
