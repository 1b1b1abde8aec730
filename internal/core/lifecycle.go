package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// Open starts a peer from its persistent state (§3.1: the AXML documents
// plus the operation log). It opens the segment log in dir/wal, builds the
// peer without serving, runs setup to host the configured documents and
// services, loads the checkpoints in dir/docs over them, compensates what
// the log shows in flight, and only then serves: until Open returns, a
// request gets p2p.ErrNoHandler. An empty dir keeps the log in memory and
// skips the load and the recovery. DESIGN.md, "Peer lifecycle: Open and
// Close", gives the order's reasons.
//
// Each Open of a directory is a new incarnation of the peer, counted in
// dir/incarnation, and its transaction IDs carry it (NewTxnID): the
// sequence restarts at every Open, and an ID the log already holds for
// committed work must never be minted again.
func Open(dir string, t p2p.Transport, opts Options, seg wal.SegmentOptions, setup func(*Peer) error) (*Peer, error) {
	var log wal.Log = wal.NewMemory()
	var inc uint64
	if dir != "" {
		seglog, err := wal.OpenDir(filepath.Join(dir, "wal"), seg)
		if err != nil {
			return nil, fmt.Errorf("core: open %s: %w", dir, err)
		}
		if inc, err = nextIncarnation(dir); err != nil {
			return nil, errors.Join(err, seglog.Close())
		}
		log = seglog
	}
	p := newPeer(t, log, opts)
	p.dir = dir
	p.mgr.inc = inc
	if err := p.load(setup); err != nil {
		return nil, errors.Join(err, log.Close())
	}
	t.SetHandler(p.handler)
	return p, nil
}

// nextIncarnation reads dir/incarnation (0 when absent), adds one and makes
// the new value durable before the peer mints an ID: temp file, fsync,
// rename, fsync of dir. An Open that fails before the rename leaves the old
// value, and it served nothing, so its number may be used again.
func nextIncarnation(dir string) (uint64, error) {
	path := filepath.Join(dir, "incarnation")
	var inc uint64
	raw, err := os.ReadFile(path)
	if err == nil {
		inc, err = strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("core: open %s: incarnation: %w", dir, err)
	}
	inc++
	if err := writeDurable(path, strconv.FormatUint(inc, 10)+"\n"); err != nil {
		return 0, fmt.Errorf("core: open %s: incarnation: %w", dir, err)
	}
	return inc, nil
}

// writeDurable replaces path with content atomically and durably.
func writeDurable(path, content string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.WriteString(content)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	return errors.Join(err, d.Close())
}

// load is Open's steps between building the peer and serving it.
func (p *Peer) load(setup func(*Peer) error) error {
	if setup != nil {
		if err := setup(p); err != nil {
			return err
		}
	}
	if p.dir == "" {
		return nil
	}
	docs := filepath.Join(p.dir, "docs")
	if err := os.MkdirAll(docs, 0o755); err != nil {
		return err
	}
	if _, err := p.store.LoadAll(docs); err != nil {
		return err
	}
	_, err := p.RecoverPending()
	return err
}

// Close is Open's inverse: it stops serving, checkpoints every document to
// dir/docs (SaveAll syncs the log first) and closes the log. What was in
// flight keeps its records, and the next Open compensates it. Without a
// dir, Close only stops serving. Call it once.
func (p *Peer) Close() error {
	p.transport.SetHandler(nil)
	if p.dir == "" {
		return nil
	}
	err := p.store.SaveAll(filepath.Join(p.dir, "docs"))
	return errors.Join(err, p.store.Log().Close())
}
