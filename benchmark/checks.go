package main

import (
	"fmt"

	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// checkDurability closes every durable log, reopens its directory and
// requires, for each of the last terminal records the log acknowledged,
// that the reopened log still knows the transaction as finished, and that
// restart recovery finds nothing to compensate. The cluster's network must
// already be closed. Killing nothing, it cannot discard unflushed writes:
// it proves the records are in the files, not that they survive power loss.
func checkDurability(c *cluster) []string {
	var fails []string
	for _, n := range c.nodes {
		if n.walDir == "" {
			continue
		}
		marks := c.settle.recentTerminals(string(n.id))
		if err := n.log.Close(); err != nil {
			fails = append(fails, fmt.Sprintf("durability: close %s: %v", n.id, err))
			continue
		}
		reopened, err := wal.OpenDir(n.walDir, walOptions)
		if err != nil {
			fails = append(fails, fmt.Sprintf("durability: reopen %s: %v", n.id, err))
			continue
		}
		fails = append(fails, checkReopened(n.id, reopened, marks)...)
		n.log.inner = reopened // closed with the cluster
	}
	return fails
}

func checkReopened(id p2p.PeerID, log *wal.SegmentedLog, marks []terminalMark) []string {
	var fails []string
	restarted := core.NewPeer(p2p.NewNetwork(0).Join(id), log, core.Options{})
	if pending, err := restarted.RecoverPending(); err != nil || len(pending) > 0 {
		fails = append(fails, fmt.Sprintf("durability: %s: restart recovery found %d unfinished transactions (err %v)", id, len(pending), err))
	}
	// A checkpoint drops finished transactions from the log, so an absent
	// transaction is fine if the log has moved past its terminal record;
	// the next LSN the log hands out tells how far it got.
	next, err := log.Append(&wal.Record{Txn: "durability-probe", Type: wal.TypeCommit})
	if err != nil {
		return append(fails, fmt.Sprintf("durability: %s: append after reopen: %v", id, err))
	}
	for _, m := range marks {
		recs := log.TxnRecords(m.txn)
		finished := len(recs) == 0 && m.lsn < next
		for _, r := range recs {
			if r.Type == wal.TypeCommit || r.Type == wal.TypeCompensateEnd {
				finished = true
			}
		}
		if !finished {
			fails = append(fails, fmt.Sprintf("durability: %s: acknowledged transaction %s has no terminal record after reopen", id, m.txn))
		}
	}
	return fails
}
