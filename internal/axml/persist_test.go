package axml

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

func TestSaveLoadRoundTripPreservesIDs(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(wal.NewMemory())
	doc, err := s.AddParsed("ATPList.xml", `<ATPList date="18042005">
	  <player rank="1"><name><lastname>Federer</lastname></name><citizenship>Swiss</citizenship></player>
	</ATPList>`)
	if err != nil {
		t.Fatal(err)
	}
	player := doc.Root().FirstElement("player")
	playerID := player.ID()

	if err := s.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	// The live tree stays free of checkpoint attributes.
	if _, ok := player.Attr(idAttr); ok {
		t.Fatal("live tree polluted with checkpoint IDs")
	}

	re := NewStore(wal.NewMemory())
	names, err := re.LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "ATPList.xml" {
		t.Fatalf("names = %v", names)
	}
	loaded, _ := re.Get("ATPList.xml")
	if !loaded.Equal(doc) {
		t.Fatalf("round trip changed structure:\n%s", xmldom.MarshalString(loaded.Root()))
	}
	n := loaded.ByID(playerID)
	if n == nil || n.Name() != "player" {
		t.Fatalf("ID %d not restored (got %v)", playerID, n)
	}
	// No checkpoint attributes leak into the loaded tree.
	if _, ok := n.Attr(idAttr); ok {
		t.Fatal("checkpoint attribute leaked")
	}
	// Fresh IDs do not collide with restored ones.
	el := loaded.CreateElement("new")
	if loaded.ByID(el.ID()) != el || el.ID() <= playerID {
		t.Fatalf("fresh ID %d collides with restored range", el.ID())
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryAcrossCheckpointAndLog(t *testing.T) {
	// The full durability story: a transaction's effects are checkpointed
	// mid-flight; after the "crash", LoadAll + the reopened log + the
	// restart pass compensate them on the restored tree, by node ID.
	dir := t.TempDir()
	logDir := filepath.Join(dir, "wal")
	docDir := filepath.Join(dir, "docs")

	log, err := wal.OpenDir(logDir, wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(log)
	if _, err := s.AddParsed("D.xml", `<D><a>orig</a></D>`); err != nil {
		t.Fatal(err)
	}
	pristine, _ := s.Snapshot("D.xml")

	loc, _ := ParseQuery(`Select d from d in D`)
	if _, err := log.Append(&wal.Record{Txn: "T", Type: wal.TypeBegin}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply("T", NewInsert(loc, `<uncommitted/>`), nil, Lazy); err != nil {
		t.Fatal(err)
	}
	locA, _ := ParseQuery(`Select d/a from d in D`)
	if _, err := s.Apply("T", NewDelete(locA), nil, Lazy); err != nil {
		t.Fatal(err)
	}
	// Checkpoint taken while T is in flight; then the peer "crashes".
	if err := s.SaveAll(docDir); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	relog, err := wal.OpenDir(logDir, wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	restored := NewStore(relog)
	if _, err := restored.LoadAll(docDir); err != nil {
		t.Fatal(err)
	}

	// Restart compensation: the insert is deleted by ID, and the deleted
	// <a> is re-inserted from its logged before-image at its logged parent
	// ID — which only works because the checkpoint preserved IDs.
	actions := buildCompActionsForTest(relog, "T")
	if len(actions) != 2 {
		t.Fatalf("compensation actions = %d", len(actions))
	}
	for _, a := range actions {
		if _, err := restored.Apply("T", a, nil, Lazy); err != nil {
			t.Fatalf("compensate on restored store: %v", err)
		}
	}
	live, _ := restored.Get("D.xml")
	if !live.Equal(pristine) {
		t.Fatalf("restored+compensated != pristine:\n got: %s\nwant: %s",
			xmldom.MarshalString(live.Root()), xmldom.MarshalString(pristine.Root()))
	}
}

// buildCompActionsForTest mirrors core.BuildCompensation without importing
// core (which would create an import cycle in tests): reverse-order inverse
// actions from the log.
func buildCompActionsForTest(log wal.Log, txn string) []*Action {
	recs := log.TxnRecords(txn)
	var out []*Action
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		switch r.Type {
		case wal.TypeInsert:
			out = append(out, &Action{Type: ActionDelete, Doc: r.Doc, TargetID: xmldom.NodeID(r.NodeID), Pos: -1})
		case wal.TypeDelete:
			out = append(out, &Action{Type: ActionInsert, Doc: r.Doc, ParentID: xmldom.NodeID(r.ParentID), Pos: r.Pos, Data: r.XML, RestoreID: xmldom.NodeID(r.NodeID)})
		}
	}
	return out
}

func TestLoadAllSkipsNonXML(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := NewStore(wal.NewMemory())
	names, err := s.LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("names = %v", names)
	}
}

func TestLoadAllRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.xml"), []byte("<unclosed"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(wal.NewMemory())
	if _, err := s.LoadAll(dir); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestSanitizeFileName(t *testing.T) {
	for in, want := range map[string]string{
		"ATPList.xml":  "ATPList.xml",
		"a/b.xml":      "a_b.xml",
		"..":           "_doc.xml",
		"plain":        "plain.xml",
		"../../escape": ".._.._escape.xml",
	} {
		if got := sanitizeFileName(in); got != want {
			t.Errorf("sanitizeFileName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSaveAllCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "docs")
	s := NewStore(wal.NewMemory())
	if _, err := s.AddParsed("D.xml", `<D/>`); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "D.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), idAttr) {
		t.Fatal("checkpoint lacks node IDs")
	}
}

// syncFailLog is a log whose durability barrier always fails.
type syncFailLog struct{ wal.Log }

var errSyncFailed = errors.New("injected sync failure")

func (syncFailLog) Sync() error { return errSyncFailed }

// watermarkLog records at each Sync the highest LSN appended before it: the
// durable watermark a disk log would guarantee at that barrier.
type watermarkLog struct {
	wal.Log
	mu       sync.Mutex
	appended uint64
	durable  uint64
}

func (l *watermarkLog) Append(r *wal.Record) (uint64, error) {
	lsn, err := l.Log.Append(r)
	if err == nil {
		l.mu.Lock()
		l.appended = max(l.appended, lsn)
		l.mu.Unlock()
	}
	return lsn, err
}

func (l *watermarkLog) Sync() error {
	l.mu.Lock()
	l.durable = l.appended
	l.mu.Unlock()
	return l.Log.Sync()
}

func (l *watermarkLog) watermark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// TestSaveAllSyncsLogFirst: a checkpoint may not hold effects whose records
// are still buffered, so SaveAll syncs the log before writing any document
// and, when the sync fails, returns its error and writes nothing.
func TestSaveAllSyncsLogFirst(t *testing.T) {
	t.Run("failed sync writes nothing", func(t *testing.T) {
		dir := t.TempDir()
		s := NewStore(syncFailLog{wal.NewMemory()})
		for _, name := range []string{"D.xml", "E.xml"} {
			if _, err := s.AddParsed(name, `<D><log/></D>`); err != nil {
				t.Fatal(err)
			}
		}
		loc, err := ParseQuery(`Select d/log from d in D`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Apply("T", NewInsert(loc, `<entry/>`), nil, Lazy); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveAll(dir); !errors.Is(err, errSyncFailed) {
			t.Fatalf("SaveAll = %v, want the sync failure", err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.xml"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 0 {
			t.Fatalf("SaveAll wrote %v despite the failed sync", files)
		}
	})
	// Checkpoints taken while a writer inserts into both documents: every
	// entry a checkpoint shows was logged at or below the watermark of that
	// checkpoint's own sync.
	t.Run("concurrent writer", func(t *testing.T) {
		log := &watermarkLog{Log: wal.NewMemory()}
		s := NewStore(log)
		for _, name := range []string{"D.xml", "E.xml"} {
			if _, err := s.AddParsed(name, `<D><log/></D>`); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var lsns []uint64 // lsns[n] logged entry n
		var writeErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				loc, err := ParseQuery(`Select d/log from d in ` + []string{"D", "E"}[n%2])
				if err != nil {
					writeErr = err
					return
				}
				res, err := s.Apply("T", NewInsert(loc, fmt.Sprintf(`<entry n="%d"/>`, n)), nil, Lazy)
				if err != nil {
					writeErr = err
					return
				}
				lsns = append(lsns, res.LastLSN)
			}
		}()
		dirs := make([]string, 8)
		watermarks := make([]uint64, len(dirs))
		for i := range dirs {
			dirs[i] = t.TempDir()
			if err := s.SaveAll(dirs[i]); err != nil {
				t.Fatal(err)
			}
			watermarks[i] = log.watermark()
		}
		close(stop)
		wg.Wait()
		if writeErr != nil {
			t.Fatal(writeErr)
		}
		entry := regexp.MustCompile(`<entry n="(\d+)"`)
		for i, dir := range dirs {
			for _, name := range []string{"D.xml", "E.xml"} {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range entry.FindAllStringSubmatch(string(raw), -1) {
					n, _ := strconv.Atoi(m[1])
					if lsns[n] > watermarks[i] {
						t.Fatalf("checkpoint %d shows entry %d (LSN %d) above its durable watermark %d", i, n, lsns[n], watermarks[i])
					}
				}
			}
		}
	})
}
