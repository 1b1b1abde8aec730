package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeBegin: "begin", TypeInsert: "insert", TypeDelete: "delete",
		TypeSetText: "settext", TypeMaterialize: "materialize",
		TypeCommit: "commit", TypeAbort: "abort",
		TypeCompensateBegin: "compensate-begin", TypeCompensateEnd: "compensate-end",
		Type(99): "Type(99)",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

func TestFileLogCorruptMiddleFrameTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(&Record{Txn: "t", Type: TypeInsert, XML: "<node/>"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second frame's body: its CRC breaks, so
	// recovery keeps only the first record.
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := binary.LittleEndian.Uint32(raw[0:4])
	second := 8 + int(firstLen)
	raw[second+8+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Records()); got != 1 {
		t.Fatalf("recovered %d records, want 1 (corruption cuts the tail)", got)
	}
}

func TestFileLogImplausibleLengthTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Txn: "t", Type: TypeInsert}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31) // absurd length
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Records()); got != 1 {
		t.Fatalf("recovered %d records", got)
	}
}

func TestFileLogConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := l.Append(&Record{Txn: "t", Type: TypeInsert, XML: "<x/>"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Records()); got != 200 {
		t.Fatalf("recovered %d records", got)
	}
}

func TestFileLogOpenBadPath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(filepath.Join(file, "dir"), SegmentOptions{}); err == nil {
		t.Fatal("open below a regular file succeeded")
	}
}

func TestFileLogTxnRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, txn := range []string{"a", "b", "a"} {
		if _, err := l.Append(&Record{Txn: txn, Type: TypeInsert}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(l.TxnRecords("a")); got != 2 {
		t.Fatalf("txn a records = %d", got)
	}
}
