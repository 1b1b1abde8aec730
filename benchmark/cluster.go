package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// walOptions is the README's recommended durable deployment
// (-waldir … -walsync group): every Append returns once its record is
// fsynced, concurrent appenders share an fsync, and a checkpoint plus
// compaction runs in the background every 2000 appends.
var walOptions = wal.SegmentOptions{
	FileOptions:     wal.FileOptions{Sync: wal.SyncGroup},
	CheckpointEvery: 2000,
}

// node is one peer with the benchmark's taps around its transport and log.
type node struct {
	id     p2p.PeerID
	peer   *core.Peer
	tap    *netTap
	log    *walTap
	walDir string // "" when the log is in memory
}

// cluster is the set of peers one workload runs on.
type cluster struct {
	nodes  []*node
	rec    *recorder
	settle *settleTracker
	dir    string // parent of the peers' WAL directories, removed on close
}

func newCluster(dir string) *cluster {
	return &cluster{rec: &recorder{}, settle: newSettleTracker(), dir: dir}
}

func (c *cluster) node(id p2p.PeerID) *node {
	for _, n := range c.nodes {
		if n.id == id {
			return n
		}
	}
	panic("benchmark: no peer " + string(id))
}

// addPeer wraps the transport and a fresh log with the taps and builds the
// peer on them. durable selects an on-disk segmented log under c.dir.
func (c *cluster) addPeer(tr p2p.Transport, durable bool, opts core.Options) (*node, error) {
	id := tr.Self()
	n := &node{id: id}
	var log wal.Log = wal.NewMemory()
	if durable {
		n.walDir = filepath.Join(c.dir, string(id))
		seg, err := wal.OpenDir(n.walDir, walOptions)
		if err != nil {
			return nil, err
		}
		log = seg
	}
	n.tap = &netTap{inner: tr, rec: c.rec, peer: string(id)}
	n.log = &walTap{inner: log, rec: c.rec, peer: string(id), settle: c.settle}
	n.peer = core.NewPeer(n.tap, n.log, opts)
	n.peer.Store().SetApplyObserver(c.rec.applyObserver(string(id)))
	c.nodes = append(c.nodes, n)
	return n, nil
}

// addTCPPeers listens on loopback for every id, tells each transport the
// others' addresses and builds the peers.
func (c *cluster) addTCPPeers(ids []p2p.PeerID, durable bool, opts func(p2p.PeerID) core.Options) error {
	trs := make([]*p2p.TCPTransport, len(ids))
	for i, id := range ids {
		tr, err := p2p.ListenTCP(id, "127.0.0.1:0")
		if err != nil {
			for _, t := range trs[:i] {
				t.Close()
			}
			return err
		}
		trs[i] = tr
	}
	for _, a := range trs {
		for _, b := range trs {
			if a != b {
				a.AddPeer(b.Self(), b.Addr())
			}
		}
	}
	for i, tr := range trs {
		if _, err := c.addPeer(tr, durable, opts(ids[i])); err != nil {
			for _, t := range trs[i:] {
				t.Close()
			}
			return err
		}
	}
	return nil
}

// closeNet detaches every peer from the network; the logs stay open for
// the checks that read them.
func (c *cluster) closeNet() {
	for _, n := range c.nodes {
		n.tap.Close()
	}
}

// close releases everything and removes the WAL directories.
func (c *cluster) close() {
	c.closeNet()
	for _, n := range c.nodes {
		n.log.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// walFootprint reports the segment files and bytes the durable peers hold.
func (c *cluster) walFootprint() (segments int, kb float64) {
	for _, n := range c.nodes {
		if seg, ok := n.log.inner.(*wal.SegmentedLog); ok {
			segments += seg.Segments()
		}
		if n.walDir == "" {
			continue
		}
		entries, _ := os.ReadDir(n.walDir)
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				kb += float64(info.Size()) / 1024
			}
		}
	}
	return segments, kb
}

// fsType names the filesystem holding dir. On tmpfs fsync is free, so the
// durable workloads would not measure a log's sync cost at all.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
