package codec

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.Byte(0x7f)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(math.MaxUint64)
	w.Varint(-1)
	w.Varint(math.MinInt64)
	w.Varint(math.MaxInt64)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("hello, wörld")
	w.BytesPrefixed(nil)
	w.BytesPrefixed([]byte{1, 2, 3})
	w.Strings([]string{"a", "", "ccc"})

	r := NewReader(w.Finish())
	if got := r.Byte(); got != 0x7f {
		t.Fatalf("Byte = %x", got)
	}
	for _, want := range []uint64{0, 300, math.MaxUint64} {
		if got := r.Uvarint(); got != want {
			t.Fatalf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range []int64{-1, math.MinInt64, math.MaxInt64} {
		if got := r.Varint(); got != want {
			t.Fatalf("Varint = %d, want %d", got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "hello, wörld" {
		t.Fatalf("String = %q", got)
	}
	if got := r.BytesPrefixed(); got != nil {
		t.Fatalf("BytesPrefixed = %v, want nil", got)
	}
	if got := r.BytesPrefixed(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("BytesPrefixed = %v", got)
	}
	ss := r.Strings()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "ccc" {
		t.Fatalf("Strings = %v", ss)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{0x05, 'a'}) // string claims 5 bytes, 1 present
	if got := r.String(); got != "" {
		t.Fatalf("truncated String = %q, want zero value", got)
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("Err = %v, want ErrMalformed", r.Err())
	}
	// Every later read stays poisoned and returns zero values.
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Bool() || r.Strings() != nil {
		t.Fatal("poisoned reader returned non-zero values")
	}
	if err := r.Finish(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Finish = %v, want ErrMalformed", err)
	}
}

func TestReaderTrailing(t *testing.T) {
	r := NewReader([]byte{0x01, 0xff})
	if r.Byte() != 1 {
		t.Fatal("Byte")
	}
	if err := r.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Finish = %v, want ErrTrailing", err)
	}
}

func TestUvarintOverflow(t *testing.T) {
	// 11 continuation bytes: longer than any valid 64-bit varint.
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	r.Uvarint()
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("Err = %v, want ErrMalformed", r.Err())
	}
}

func TestUvarintCanonical(t *testing.T) {
	// 0 and 1 padded with a continuation byte: same values, second encoding.
	for _, b := range [][]byte{{0x80, 0x00}, {0x81, 0x00}, {0x80, 0x80, 0x00}} {
		r := NewReader(b)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("% x: Err = %v, want ErrMalformed", b, r.Err())
		}
	}
}

func TestCountGuard(t *testing.T) {
	// Count claims 2^20 elements with 2 bytes remaining: must fail without
	// allocating.
	w := GetWriter()
	defer PutWriter(w)
	w.Uvarint(1 << 20)
	w.Byte(0)
	r := NewReader(w.Finish())
	if got := r.Strings(); got != nil {
		t.Fatalf("Strings = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("Err = %v, want ErrMalformed", r.Err())
	}
}

func TestBoolStrict(t *testing.T) {
	r := NewReader([]byte{0x02})
	r.Bool()
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("Err = %v, want ErrMalformed", r.Err())
	}
}
