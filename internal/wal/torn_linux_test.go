//go:build linux

package wal

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// tornWriteDirEnv carries the log directory to the child run of
// TestFailedWriteLeavesNoTear.
const tornWriteDirEnv = "WAL_TORN_WRITE_DIR"

// TestFailedWriteLeavesNoTear makes a frame write fail partway: under a
// file-size limit just above the segment's end, an Append writes part of
// its frame and fails with EFBIG. Once the limit is lifted, commits
// appended afterwards must survive a reopen; a partial frame left in the
// file would make replay stop there and drop them. The limit binds the
// whole process, so the appends run in a child copy of the test binary.
func TestFailedWriteLeavesNoTear(t *testing.T) {
	if dir := os.Getenv(tornWriteDirEnv); dir != "" {
		failWriteThenCommit(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedWriteLeavesNoTear$", "-test.count=1")
	cmd.Env = append(os.Environ(), tornWriteDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child run: %v\n%s", err, out)
	}
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var commits []string
	for _, r := range l.Records() {
		if r.Type == TypeCommit {
			commits = append(commits, r.Txn)
		}
	}
	if strings.Join(commits, ",") != "before,after1,after2" {
		t.Fatalf("commits after reopen = %v, want [before after1 after2]", commits)
	}
}

// failWriteThenCommit is the child half of TestFailedWriteLeavesNoTear.
func failWriteThenCommit(t *testing.T, dir string) {
	l, err := OpenDir(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Txn: "before", Type: TypeCommit}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	lifted := lim
	lim.Cur = uint64(st.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	_, werr := l.Append(&Record{Txn: "torn", Type: TypeInsert, XML: strings.Repeat("<x/>", 50)})
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lifted); err != nil {
		t.Fatal(err)
	}
	if werr == nil {
		t.Fatal("an append past the file-size limit succeeded")
	}
	for _, txn := range []string{"after1", "after2"} {
		if _, err := l.Append(&Record{Txn: txn, Type: TypeCommit}); err != nil {
			t.Fatalf("commit %s after the limit was lifted: %v", txn, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
