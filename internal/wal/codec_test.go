package wal

import (
	"errors"
	"reflect"
	"testing"

	"axmltx/internal/codec"
)

func sampleRecord() *Record {
	return &Record{
		LSN:      42,
		Txn:      "t-1",
		Type:     TypeDelete,
		Doc:      "orders.xml",
		NodeID:   7,
		ParentID: 3,
		Pos:      -1,
		Nodes:    4,
		XML:      "<item id=\"7\"><qty>2</qty></item>",
		OldText:  "old",
		NewText:  "new",
		Service:  "warehouse.lookup",
	}
}

func TestRecordBinaryRoundTrip(t *testing.T) {
	want := sampleRecord()
	got, err := DecodeRecord(EncodeRecord(want))
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRecordTruncated(t *testing.T) {
	blob := EncodeRecord(sampleRecord())
	for cut := 1; cut < len(blob); cut++ {
		if _, err := DecodeRecord(blob[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	a, b := sampleRecord(), sampleRecord()
	b.LSN, b.Txn = 43, "t-2"
	want := &checkpoint{LastLSN: 99, Live: []*Record{a, b}}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	appendCheckpoint(w, want)
	got, err := decodeCheckpoint(w.Bytes())
	if err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestRetiredRecordVersionRefused pins the replace-don't-fork rule: a
// version-2 body (the layout before Nodes) is corrupt, as a frame and inside
// a checkpoint.
func TestRetiredRecordVersionRefused(t *testing.T) {
	v2 := EncodeRecord(sampleRecord())
	v2[0] = 0x02
	if _, err := DecodeRecord(v2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-2 record: %v, want ErrCorrupt", err)
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	appendCheckpoint(w, &checkpoint{LastLSN: 9, Live: []*Record{sampleRecord()}})
	ck := w.Finish()
	ck[2] = 0x02 // [checkpoint version][LastLSN=9][record version]...
	if _, err := decodeCheckpoint(ck); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-2 record in checkpoint: %v, want ErrCorrupt", err)
	}
}

func TestTypedErrors(t *testing.T) {
	if _, err := DecodeRecord([]byte{blobRecord}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty binary blob: %v, want ErrCorrupt", err)
	}
	for _, blob := range [][]byte{nil, {0x01}, {blobCheckpoint}, append([]byte{0x40}, EncodeRecord(sampleRecord())[1:]...)} {
		if _, err := DecodeRecord(blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("body % x: %v, want ErrCorrupt", blob, err)
		}
	}
	if _, err := decodeCheckpoint(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil checkpoint: %v, want ErrCorrupt", err)
	}
}

// FuzzRecordDecode asserts the WAL blob decoder never panics or over-reads,
// whatever bytes a torn or bit-flipped frame hands it. Wired into the
// nightly fuzz job.
func FuzzRecordDecode(f *testing.F) {
	f.Add(EncodeRecord(sampleRecord()))
	w := codec.GetWriter()
	appendCheckpoint(w, &checkpoint{LastLSN: 7, Live: []*Record{sampleRecord()}})
	f.Add(w.Finish())
	codec.PutWriter(w)
	f.Add([]byte{blobRecord})
	f.Add([]byte{blobCheckpoint, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if r, err := DecodeRecord(blob); err == nil {
			// A successful decode must re-encode to the same bytes.
			if got := EncodeRecord(r); string(got) != string(blob) {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, blob)
			}
		}
		decodeCheckpoint(blob)
	})
}
