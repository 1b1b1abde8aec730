package wal

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemoryAppendAssignsSequentialLSNs(t *testing.T) {
	l := NewMemory()
	for i := 1; i <= 5; i++ {
		lsn, err := l.Append(&Record{Txn: "t1", Type: TypeInsert})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestMemoryTxnRecordsFiltersAndOrders(t *testing.T) {
	l := NewMemory()
	for i := 0; i < 10; i++ {
		txn := "a"
		if i%2 == 1 {
			txn = "b"
		}
		if _, err := l.Append(&Record{Txn: txn, Type: TypeInsert, Pos: i}); err != nil {
			t.Fatal(err)
		}
	}
	recs := l.TxnRecords("a")
	if len(recs) != 5 {
		t.Fatalf("txn a records = %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatal("records out of LSN order")
		}
	}
	if len(l.TxnRecords("missing")) != 0 {
		t.Fatal("missing txn should have no records")
	}
}

func TestMemoryAppendCopiesRecord(t *testing.T) {
	l := NewMemory()
	r := &Record{Txn: "t", Type: TypeDelete, XML: "<a/>"}
	if _, err := l.Append(r); err != nil {
		t.Fatal(err)
	}
	r.XML = "mutated"
	if l.Records()[0].XML != "<a/>" {
		t.Fatal("log shares memory with caller's record")
	}
}

func TestMemoryClosedAppendFails(t *testing.T) {
	l := NewMemory()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMemoryConcurrentAppends(t *testing.T) {
	l := NewMemory()
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := l.Append(&Record{Txn: "t", Type: TypeInsert}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	recs := l.Records()
	if len(recs) != n*20 {
		t.Fatalf("records = %d", len(recs))
	}
	seen := make(map[uint64]bool)
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []*Record{
		{Txn: "t1", Type: TypeBegin, Doc: "ATPList.xml"},
		{Txn: "t1", Type: TypeDelete, Doc: "ATPList.xml", NodeID: 7, ParentID: 3, Pos: 1, XML: "<citizenship>Swiss</citizenship>"},
		{Txn: "t1", Type: TypeCommit},
	}
	for _, r := range want {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].XML != want[i].XML || got[i].NodeID != want[i].NodeID {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
		if got[i].LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d", i, got[i].LSN)
		}
	}
	// Appends continue the LSN sequence after recovery.
	lsn, err := re.Append(&Record{Txn: "t2", Type: TypeBegin})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-recovery lsn = %d", lsn)
	}
}

func TestFileLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(&Record{Txn: "t", Type: TypeInsert, XML: "<node/>"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append garbage bytes.
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Records()); got != 3 {
		t.Fatalf("recovered %d records, want 3", got)
	}
	// The log must accept appends after truncating the torn tail, and a
	// further recovery must see them.
	if _, err := re.Append(&Record{Txn: "t", Type: TypeCommit}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := len(re2.Records()); got != 4 {
		t.Fatalf("after torn-tail append, recovered %d records, want 4", got)
	}
}

func TestFileLogClosedAppendFails(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{}); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestPropertyFileLogRecoversExactlyWhatWasAppended(t *testing.T) {
	root := t.TempDir()
	i := 0
	f := func(xmls []string) bool {
		i++
		dir := filepath.Join(root, strconv.Itoa(i))
		l, err := OpenDir(dir, SegmentOptions{})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, x := range xmls {
			if _, err := l.Append(&Record{Txn: "t", Type: TypeDelete, XML: x}); err != nil {
				t.Log(err)
				return false
			}
		}
		if err := l.Close(); err != nil {
			t.Log(err)
			return false
		}
		re, err := OpenDir(dir, SegmentOptions{})
		if err != nil {
			t.Log(err)
			return false
		}
		defer re.Close()
		got := re.Records()
		if len(got) != len(xmls) {
			return false
		}
		for i, r := range got {
			if r.XML != xmls[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordString(t *testing.T) {
	r := &Record{LSN: 3, Txn: "TA@AP1#1", Type: TypeDelete, Doc: "d.xml", NodeID: 9}
	s := r.String()
	for _, want := range []string{"TA@AP1#1", "delete", "d.xml"} {
		if !containsStr(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
