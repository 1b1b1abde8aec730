package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// appendTxn appends a begin/insert/commit (or not) triple for txn. For a
// single-digit suffix the three frames take 29, 33 and 24 bytes, so a
// MaxSegmentBytes of 100 holds about four records, 80 three, 50 two.
func appendTxn(t *testing.T, l Log, txn string, commit bool) {
	t.Helper()
	for _, r := range []*Record{
		{Txn: txn, Type: TypeBegin, Doc: "d.xml"},
		{Txn: txn, Type: TypeInsert, Doc: "d.xml", NodeID: 5, ParentID: 1, XML: "<a/>"},
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if commit {
		if _, err := l.Append(&Record{Txn: txn, Type: TypeCommit}); err != nil {
			t.Fatalf("Append commit: %v", err)
		}
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if _, ok := parseSegmentName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestSegmentedRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendTxn(t, l, fmt.Sprintf("t-%d", i), true)
	}
	want := l.Records()
	if len(want) != 15 {
		t.Fatalf("records = %d, want 15", len(want))
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("Segments = %d, want >= 3 after 15 records at about 4/segment", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: got %d records, want %d", len(got), len(want))
	}
	// LSNs keep advancing after reopen.
	lsn, err := re.Append(&Record{Txn: "t-after", Type: TypeBegin})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 16 {
		t.Fatalf("post-reopen LSN = %d, want 16", lsn)
	}
}

func TestSegmentedRotationByBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		appendTxn(t, l, fmt.Sprintf("t-%d", i), true)
	}
	if got := l.Segments(); got < 2 {
		t.Fatalf("Segments = %d, want >= 2 with 256-byte segments", got)
	}
}

func TestSegmentedCheckpointTrimsResolved(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendTxn(t, l, "done-1", true)
	appendTxn(t, l, "live-1", false)
	appendTxn(t, l, "done-2", true)
	if err := l.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("post-checkpoint records = %d, want 2 (live txn only)", len(recs))
	}
	for _, r := range recs {
		if r.Txn != "live-1" {
			t.Fatalf("unexpected surviving txn %q", r.Txn)
		}
	}
	// LSNs are preserved, not renumbered.
	if recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("live LSNs = %d,%d, want 4,5", recs[0].LSN, recs[1].LSN)
	}
	want := l.Records()
	next, err := l.Append(&Record{Txn: "live-1", Type: TypeCommit})
	if err != nil {
		t.Fatal(err)
	}
	if next != 9 {
		t.Fatalf("post-checkpoint LSN = %d, want 9 (checkpoint preserves counter)", next)
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
	if len(got) != len(want)+1 {
		t.Fatalf("replayed %d records, want %d", len(got), len(want)+1)
	}
	if !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatal("checkpointed replay does not match pre-restart view")
	}
}

// TestSegmentedCheckpointKeepsReinvokedTxn: a transaction compensated and
// then re-invoked has effects after its completed bracket; the checkpoint
// keeps all its records, so the reopened log still shows them pending.
func TestSegmentedCheckpointKeepsReinvokedTxn(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Record{
		{Txn: "r", Type: TypeInsert, Doc: "d.xml", NodeID: 5},
		{Txn: "r", Type: TypeAbort},
		{Txn: "r", Type: TypeCompensateBegin},
		{Txn: "r", Type: TypeDelete, Doc: "d.xml", NodeID: 5},
		{Txn: "r", Type: TypeCompensateEnd},
		{Txn: "r", Type: TypeInsert, Doc: "d.xml", NodeID: 9},
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := l.Records()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint kept %d of the re-invoked transaction's %d records", len(got), len(want))
	}
	if st := Fold(re.TxnRecords("r")); !st.Pending() || len(st.Effects) != 1 || st.Effects[0].NodeID != 9 {
		t.Fatalf("reopened state = %+v, want the re-invoked insert pending", st)
	}
}

func TestSegmentedCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 80})
	if err != nil {
		t.Fatal(err)
	}
	var hookRemoved, hookRemaining int
	var hookErr error
	l.SetOnCompact(func(removed, remaining int, err error) {
		hookRemoved, hookRemaining, hookErr = removed, remaining, err
	})
	for i := 0; i < 6; i++ {
		appendTxn(t, l, fmt.Sprintf("t-%d", i), true)
	}
	before := l.Segments()
	if before < 4 {
		t.Fatalf("Segments = %d, want >= 4", before)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	removed, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != before {
		t.Fatalf("Compact removed %d, want %d (all pre-checkpoint segments)", removed, before)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("Segments after compact = %d, want 1", got)
	}
	if hookRemoved != removed || hookRemaining != 1 || hookErr != nil {
		t.Fatalf("OnCompact got (%d,%d,%v), want (%d,1,nil)", hookRemoved, hookRemaining, hookErr, removed)
	}
	if len(segFiles(t, dir)) != 1 {
		t.Fatalf("disk has %v, want 1 segment", segFiles(t, dir))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Records()); got != 0 {
		t.Fatalf("replay after full compact = %d records, want 0 (everything resolved)", got)
	}
	if lsn, _ := re.Append(&Record{Txn: "x", Type: TypeBegin}); lsn != 19 {
		t.Fatalf("LSN after compacted replay = %d, want 19", lsn)
	}
}

func TestSegmentedAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 100, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		appendTxn(t, l, fmt.Sprintf("t-%d", i), true)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The background compactor must have kept the directory bounded: without
	// it 120 records at about 4/segment is 30 segments.
	if n := len(segFiles(t, dir)); n >= 30 {
		t.Fatalf("auto checkpoint never compacted: %d segments", n)
	}
	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if lsn, _ := re.Append(&Record{Txn: "x", Type: TypeBegin}); lsn != 121 {
		t.Fatalf("LSN after auto-checkpointed replay = %d, want 121", lsn)
	}
}

func TestSegmentedGroupCommitAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txn := fmt.Sprintf("t-%d-%d", w, i)
				if _, err := l.Append(&Record{Txn: txn, Type: TypeBegin}); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Append: %v", err)
	}
	if got := len(l.Records()); got != writers*each {
		t.Fatalf("records = %d, want %d", got, writers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Records()); got != writers*each {
		t.Fatalf("replayed %d, want %d", got, writers*each)
	}
}

func TestSegmentedTornTailLastSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 80})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendTxn(t, l, fmt.Sprintf("t-%d", i), true)
	}
	want := l.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	lastPath := filepath.Join(dir, files[len(files)-1])
	f, err := os.OpenFile(lastPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\x07torn-record-fragment"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 80})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail replay: got %d records, want %d", len(got), len(want))
	}
}

func TestSegmentedCorruptEarlierSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, SegmentOptions{MaxSegmentBytes: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendTxn(t, l, fmt.Sprintf("t-%d", i), true)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	if len(files) < 3 {
		t.Fatalf("want >= 3 segments, got %v", files)
	}
	// Flip a byte in the middle of the FIRST segment: unlike the last
	// segment's torn tail this is a durability violation, not a crash
	// artifact, and must be reported.
	first := filepath.Join(dir, files[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, SegmentOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDir = %v, want ErrCorrupt", err)
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 42, 99999999} {
		got, ok := parseSegmentName(segmentName(n))
		if !ok || got != n {
			t.Fatalf("parse(%q) = %d,%v", segmentName(n), got, ok)
		}
	}
	for _, bad := range []string{"x.seg", "0001.seg", "00000001.wal", "00000001.seg.tmp"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}

// TestRotationFailureKeepsLogUsable puts a file where rotation would create
// the next segment. Checkpoint and the Append that must rotate fail, but the
// active segment stays in place: appends that need no rotation go on, and
// once the obstacle is gone, appends, a commit, Sync and a reopen succeed.
func TestRotationFailureKeepsLogUsable(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{MaxSegmentBytes: 100}
	l, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendTxn(t, l, "a", true)
	obstacle := filepath.Join(dir, segmentName(2))
	if err := os.WriteFile(obstacle, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err == nil {
		t.Fatal("Checkpoint rotated onto an existing segment file")
	}
	// 86 bytes are below the threshold: this append needs no rotation.
	if _, err := l.Append(&Record{Txn: "b", Type: TypeInsert, Doc: "d.xml", XML: "<b/>"}); err != nil {
		t.Fatalf("append after the failed checkpoint: %v", err)
	}
	if _, err := l.Append(&Record{Txn: "b", Type: TypeInsert}); err == nil {
		t.Fatal("an append rotated onto an existing segment file")
	}
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	appendTxn(t, l, "c", true)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after the obstacle was removed: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var got []string
	for _, r := range re.Records() {
		got = append(got, r.Txn+":"+r.Type.String())
	}
	want := "a:begin a:insert a:commit b:insert c:begin c:insert c:commit"
	if strings.Join(got, " ") != want {
		t.Fatalf("reopened log = %v, want %s", got, want)
	}
	if n := len(segFiles(t, dir)); n != 2 {
		t.Fatalf("segments on disk = %d, want 2", n)
	}
}
