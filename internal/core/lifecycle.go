package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

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
func Open(dir string, t p2p.Transport, opts Options, seg wal.SegmentOptions, setup func(*Peer) error) (*Peer, error) {
	var log wal.Log = wal.NewMemory()
	if dir != "" {
		seglog, err := wal.OpenDir(filepath.Join(dir, "wal"), seg)
		if err != nil {
			return nil, fmt.Errorf("core: open %s: %w", dir, err)
		}
		log = seglog
	}
	p := newPeer(t, log, opts)
	p.dir = dir
	if err := p.load(setup); err != nil {
		return nil, errors.Join(err, log.Close())
	}
	t.SetHandler(p.handler)
	return p, nil
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
