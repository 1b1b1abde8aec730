package chaos

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// segWorkload drives the shared crash workload against a store over log:
// transaction C commits three inserts, transaction T leaves two more in
// flight. Returns the dirty document snapshot at the kill instant.
func segWorkload(t *testing.T, log wal.Log) *xmldom.Document {
	t.Helper()
	loc, err := axml.ParseQuery(`Select d/log from d in D`)
	if err != nil {
		t.Fatal(err)
	}
	store := axml.NewStore(log)
	if _, err := store.AddParsed("D.xml", `<D><log/></D>`); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(&wal.Record{Txn: "C", Type: wal.TypeBegin}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := store.Apply("C", axml.NewInsert(loc, fmt.Sprintf(`<entry n="%d"/>`, i)), nil, axml.Lazy); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.Append(&wal.Record{Txn: "C", Type: wal.TypeCommit}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeBegin}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.Apply("T", axml.NewInsert(loc, fmt.Sprintf(`<wip n="%d"/>`, i)), nil, axml.Lazy); err != nil {
			t.Fatal(err)
		}
	}
	// The kill instant: everything appended so far is durable (the engine
	// runs the same barrier before a served invocation's reply), then the
	// process dies.
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	dirty, _ := store.Snapshot("D.xml")
	return dirty
}

// frameSizes is a Log that records the on-disk frame size of each record
// it appends: an 8-byte length and checksum header, then the encoding.
type frameSizes struct {
	wal.Log
	sizes []int64
}

func (l *frameSizes) Append(r *wal.Record) (uint64, error) {
	lsn, err := l.Log.Append(r)
	l.sizes = append(l.sizes, 8+int64(len(wal.EncodeRecord(r))))
	return lsn, err
}

// segOpts sizes segments for segWorkload's eight records: the threshold is
// the last four frames' bytes, so the log rotates after the fourth record
// and the second segment is exactly full at the kill instant.
func segOpts(t *testing.T) wal.SegmentOptions {
	t.Helper()
	sizing := &frameSizes{Log: wal.NewMemory()}
	segWorkload(t, sizing)
	var first, second int64
	for i, n := range sizing.sizes {
		if i < 4 {
			first += n
		} else {
			second += n
		}
	}
	if len(sizing.sizes) != 8 || first < second || first-sizing.sizes[3] >= second {
		t.Fatalf("frame sizes %v do not split into two full segments of four", sizing.sizes)
	}
	return wal.SegmentOptions{MaxSegmentBytes: second}
}

// segWant is the no-fault outcome of segWorkload after restart recovery:
// C's inserts applied, T's compensated away.
func segWant(t *testing.T) string {
	t.Helper()
	log := wal.NewMemory()
	dirty := segWorkload(t, log)
	restore := axml.NewStore(log)
	restore.Add(dirty)
	if _, err := core.RecoverPending(restore); err != nil {
		t.Fatal(err)
	}
	doc, _ := restore.Get("D.xml")
	return xmldom.MarshalString(doc.Root())
}

// segRecover reopens dir, replays, runs restart recovery over the dirty
// document and checks the outcome against the no-fault run.
func segRecover(t *testing.T, dir string, opts wal.SegmentOptions, dirty *xmldom.Document, want string) *wal.SegmentedLog {
	t.Helper()
	relog, err := wal.OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	t.Cleanup(func() { _ = relog.Close() })
	// Checkpointed views may carry LSN gaps where resolved transactions
	// were trimmed; order must still be strictly monotonic.
	if err := core.CheckLSNMonotonic(relog.Records()); err != nil {
		t.Fatalf("reopened log: %v", err)
	}
	restore := axml.NewStore(relog)
	restore.Add(dirty)
	recovered, err := core.RecoverPending(restore)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "T" {
		t.Fatalf("recovery acted on %v, want exactly [T]", recovered)
	}
	live, _ := restore.Get("D.xml")
	if got := xmldom.MarshalString(live.Root()); got != want {
		t.Fatalf("replayed document diverged from no-fault run:\n got: %s\nwant: %s", got, want)
	}
	if err := core.CheckReverseCompensationOrder(relog, "T"); err != nil {
		t.Fatal(err)
	}
	if err := core.CheckCompensationComplete(relog, "T"); err != nil {
		t.Fatal(err)
	}
	return relog
}

// TestSegmentCrashTornTailAtBoundary kills the peer right as the active
// segment fills to its rotation threshold, with a torn record fragment
// dying in the write. Replay must truncate the tear and recover exactly
// the no-fault state under every write pattern.
func TestSegmentCrashTornTailAtBoundary(t *testing.T) {
	want := segWant(t)
	opts := segOpts(t)
	for _, pat := range syncPatterns {
		t.Run(pat.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = log.Close() })
			dirty := segWorkload(t, pat.wrap(log))
			if n := len(segFileNames(t, dir)); n != 2 {
				t.Fatalf("workload left %d segments, want 2", n)
			}
			tornWrite(t, filepath.Join(dir, lastSegment(t, dir)), []byte("\x07torn-record-fragment"))
			segRecover(t, dir, opts, dirty, want)
		})
	}
}

// TestSegmentCrashMidCheckpoint kills the peer between a checkpoint's
// rotation and the checkpoint frame becoming durable: the fresh segment
// holds a torn checkpoint frame. Replay must discard the torn head and
// fall back to the fully durable prior segments.
func TestSegmentCrashMidCheckpoint(t *testing.T) {
	want := segWant(t)
	opts := segOpts(t)
	for _, pat := range syncPatterns {
		t.Run(pat.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = log.Close() })
			dirty := segWorkload(t, pat.wrap(log))
			// Rotation fsynced and closed the full segments; the dying write
			// left the successor holding a frame header that promises more
			// checkpoint bytes than ever reached the disk.
			n, ok := parseSeg(lastSegment(t, dir))
			if !ok {
				t.Fatal("no segment files")
			}
			var torn [18]byte
			binary.LittleEndian.PutUint32(torn[0:4], 200) // length the body never reaches
			binary.LittleEndian.PutUint32(torn[4:8], 0xdeadbeef)
			torn[8] = 0x03 // checkpoint blob version byte
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%08d.seg", n+1)), torn[:], 0o644); err != nil {
				t.Fatal(err)
			}
			segRecover(t, dir, opts, dirty, want)
		})
	}
}

// TestSegmentCrashMidCompaction takes a real checkpoint, then kills the
// peer partway through compaction — some covered segments already deleted,
// others still on disk. Replay must supersede the stale survivors at the
// checkpoint, and the next compaction must reclaim them despite the hole.
func TestSegmentCrashMidCompaction(t *testing.T) {
	want := segWant(t)
	opts := segOpts(t)
	for _, pat := range syncPatterns {
		t.Run(pat.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = log.Close() })
			dirty := segWorkload(t, pat.wrap(log))
			if err := log.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			ckName := lastSegment(t, dir)
			ck, _ := parseSeg(ckName)
			if ck < 3 {
				t.Fatalf("workload produced only %d segments, cannot model a partial compaction", ck)
			}
			// Compaction deletes newest-first; the crash lands after the
			// highest covered segment is gone but before the older ones are.
			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("%08d.seg", ck-1))); err != nil {
				t.Fatal(err)
			}
			relog := segRecover(t, dir, opts, dirty, want)
			// The survivors below the hole must still be reclaimable.
			removed, err := relog.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if removed == 0 {
				t.Fatal("post-crash compaction reclaimed nothing despite leftover covered segments")
			}
			files := segFileNames(t, dir)
			for _, f := range files {
				if n, _ := parseSeg(f); n < ck {
					t.Fatalf("covered segment %s survived compaction (on disk: %v)", f, files)
				}
			}
		})
	}
}

// tornWrite appends a dying write to path, as a crashing process would.
func tornWrite(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
}

// segFileNames lists the segment files in dir, sorted by name.
func segFileNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if _, ok := parseSeg(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

// lastSegment returns the highest-numbered segment file name in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	files := segFileNames(t, dir)
	if len(files) == 0 {
		t.Fatal("no segment files")
	}
	return files[len(files)-1]
}

// parseSeg inverts the wal segment file naming scheme.
func parseSeg(name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "%08d.seg", &n); err != nil || fmt.Sprintf("%08d.seg", n) != name {
		return 0, false
	}
	return n, true
}
