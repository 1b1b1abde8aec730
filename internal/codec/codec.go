// Package codec provides the hand-rolled binary wire primitives shared by
// the hot paths: protocol payloads between active peers (internal/core),
// gossip sync messages (internal/membership) and WAL record bodies
// (internal/wal).
//
// The format is length-prefixed varint framing: unsigned varints for
// lengths, counts and IDs, zig-zag varints for signed values, and
// length-prefixed byte runs for strings. Decoding is zero-copy: strings and
// byte slices returned by a Reader alias the input buffer, so the single
// allocation of receiving a payload is shared by everything decoded from it
// — no per-field copies, no reflection, no type descriptors on the wire
// (the cost centers of encoding/gob, which this package replaced everywhere).
//
// Safety contract: a Reader never panics and never reads past the end of
// its buffer, no matter how mangled the input is. Errors are sticky — the
// first malformed read poisons the Reader and every later read returns zero
// values — so decoders can run a straight-line sequence of reads and check
// Err once at the end. This is what makes the decoders fuzzable (see
// FuzzWireDecode, FuzzRecordDecode).
package codec

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

// Errors reported by Reader. All decode failures are errors.Is-able to
// ErrMalformed.
var (
	// ErrMalformed is the class of every decode failure: truncated buffer,
	// over-long or non-minimal varint, implausible length prefix.
	ErrMalformed = errors.New("codec: malformed input")
	// ErrTrailing is returned by Finish when decoded length < input length.
	ErrTrailing = errors.New("codec: trailing bytes after payload")
)

// maxLen bounds any single length prefix (strings, byte runs, counts) to
// guard against a corrupted prefix asking for gigabytes. One wire payload or
// WAL record body is always far below this.
const maxLen = 1 << 30

// Writer builds a binary payload. The zero value is ready to use; Get/Put
// recycle writers (and their buffers) through a pool for the hot paths.
type Writer struct {
	buf []byte
}

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledCap bounds pooled buffer capacity so one oversized payload does
// not pin memory (same rule as the PR 1 wire-buffer pool).
const maxPooledCap = 1 << 16

// GetWriter returns a reset pooled Writer.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.buf = w.buf[:0]
	return w
}

// PutWriter recycles w. The caller must not use w, or any slice obtained
// from Bytes, after this call.
func PutWriter(w *Writer) {
	if cap(w.buf) <= maxPooledCap {
		writerPool.Put(w)
	}
}

// Bytes returns the encoded payload, aliasing the writer's buffer. Copy it
// (or use Finish) before recycling the writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Finish returns an owned copy of the payload, safe to keep after the
// writer is recycled.
func (w *Writer) Finish() []byte { return append([]byte(nil), w.buf...) }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends a raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Raw appends raw bytes without a length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Uvarint appends an unsigned varint (LEB128, as encoding/binary).
func (w *Writer) Uvarint(x uint64) {
	for x >= 0x80 {
		w.buf = append(w.buf, byte(x)|0x80)
		x >>= 7
	}
	w.buf = append(w.buf, byte(x))
}

// Varint appends a signed varint (zig-zag).
func (w *Writer) Varint(x int64) {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	w.Uvarint(ux)
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// BytesPrefixed appends a length-prefixed byte run. A nil slice round-trips
// as nil (prefix 0); decoders cannot distinguish nil from empty, which none
// of the wire types care about.
func (w *Writer) BytesPrefixed(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Strings appends a count-prefixed string list.
func (w *Writer) Strings(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader decodes a binary payload produced by Writer. Strings and byte
// slices it returns alias the input buffer: they are valid for as long as
// the buffer is, and must not be mutated through the slice.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky decode error, nil while every read so far was
// well-formed.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns the sticky error, or ErrTrailing if undecoded bytes
// remain — a decoded payload must account for its entire buffer.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d byte(s)", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

// fail poisons the reader.
func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, r.off)
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if r.off >= len(r.buf) {
			r.fail("truncated uvarint")
			return 0
		}
		b := r.buf[r.off]
		r.off++
		if b < 0x80 {
			if i == 9 && b > 1 {
				r.fail("uvarint overflows 64 bits")
				return 0
			}
			if i > 0 && b == 0 {
				// One value, one encoding: what a decoder accepts re-encodes
				// to the same bytes (the golden fixtures and fuzz targets
				// rely on it).
				r.fail("non-minimal uvarint")
				return 0
			}
			return x | uint64(b)<<s
		}
		if i == 9 {
			r.fail("uvarint longer than 10 bytes")
			return 0
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Bool reads a boolean byte; any value other than 0 or 1 is malformed.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.fail("bool out of range")
		return false
	}
	return b == 1
}

// run reads a length prefix and returns the following byte run, aliasing
// the input buffer.
func (r *Reader) run(what string) []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxLen || n > uint64(len(r.buf)-r.off) {
		r.fail("truncated " + what)
		return nil
	}
	b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string without copying: the result aliases
// the input buffer (unsafe.String over the undecoded bytes). The buffer
// outlives the decoded message everywhere this package is used — message
// payloads and WAL frame bodies are freshly allocated per message and never
// recycled — which is what makes the aliasing safe.
func (r *Reader) String() string {
	b := r.run("string")
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// StringCopy reads a length-prefixed string into fresh memory, for decoders
// whose input buffer IS recycled.
func (r *Reader) StringCopy() string {
	return string(r.run("string"))
}

// BytesPrefixed reads a length-prefixed byte run, aliasing the input
// buffer. Empty runs decode as nil.
func (r *Reader) BytesPrefixed() []byte {
	b := r.run("bytes")
	if len(b) == 0 {
		return nil
	}
	return b
}

// Count reads a count prefix and validates it against the bytes remaining:
// each counted element needs at least min bytes, so a corrupted count
// cannot cause a huge allocation before the truncation is noticed.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > maxLen || n*uint64(min) > uint64(len(r.buf)-r.off) {
		r.fail("count exceeds remaining bytes")
		return 0
	}
	return int(n)
}

// Strings reads a count-prefixed string list. Empty lists decode as nil.
func (r *Reader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String())
		if r.err != nil {
			return nil
		}
	}
	return out
}
