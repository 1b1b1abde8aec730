package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"axmltx/internal/obs"
)

// ErrLockTimeout is returned when a transaction cannot acquire a document
// lock within the configured wait; the engine surfaces it as a fault so the
// standard recovery machinery (retry handlers, abort) applies. Timeout also
// breaks deadlocks between transactions.
var ErrLockTimeout = errors.New("core: lock wait timeout")

// LockTable provides per-document two-phase locking with txn ownership and
// re-entrancy. Every lock is exclusive: updates write, and queries may write
// too, because lazy evaluation materializes service calls into the document
// (§3.1) — the "active" nature of AXML documents that §2 argues defeats
// classic XML lock protocols, and why our isolation unit is the document.
// Growth happens as operations execute; shrink happens only at commit/abort
// (strict 2PL), which combined with compensation-based recovery gives the
// relaxed isolation of the framework.
type LockTable struct {
	mu      sync.Mutex
	cond    *sync.Cond
	holders map[string]string // doc -> the one txn holding it
	timeout time.Duration
	// waits observes how long each contended Acquire waited (granted or
	// timed out); nil until observeWaits.
	waits *obs.Histogram
}

// NewLockTable creates a table with the given acquisition timeout.
func NewLockTable(timeout time.Duration) *LockTable {
	lt := &LockTable{holders: make(map[string]string), timeout: timeout}
	lt.cond = sync.NewCond(&lt.mu)
	return lt
}

// Acquire obtains doc for txn, blocking up to the table timeout.
// Re-acquiring an already-held lock succeeds immediately.
func (lt *LockTable) Acquire(txn, doc string) error {
	lt.mu.Lock()
	if lt.grant(txn, doc) {
		lt.mu.Unlock()
		return nil
	}
	// Contended. The wait is observed once lt.mu is released, outside the
	// critical section every locker shares.
	start, waits := time.Now(), lt.waits
	err := lt.waitLocked(txn, doc, start)
	lt.mu.Unlock()
	waits.Observe(time.Since(start))
	return err
}

// waitLocked waits from start until txn is granted doc or the table
// timeout passes; the caller holds lt.mu. The condition-variable wait
// cannot time out by itself, so a waker goroutine broadcasts at the
// deadline and waiters re-check.
func (lt *LockTable) waitLocked(txn, doc string, start time.Time) error {
	deadline := start.Add(lt.timeout)
	timerFired := false
	timer := time.AfterFunc(lt.timeout, func() {
		lt.mu.Lock()
		timerFired = true
		lt.mu.Unlock()
		lt.cond.Broadcast()
	})
	defer timer.Stop()
	for {
		if timerFired || time.Now().After(deadline) {
			return fmt.Errorf("%w: txn %s on %q", ErrLockTimeout, txn, doc)
		}
		lt.cond.Wait()
		if lt.grant(txn, doc) {
			return nil
		}
	}
}

// observeWaits installs the histogram contended acquisitions report their
// wait to.
func (lt *LockTable) observeWaits(h *obs.Histogram) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.waits = h
}

// grant records txn as the holder of doc unless another transaction holds
// it; the caller holds lt.mu.
func (lt *LockTable) grant(txn, doc string) bool {
	if holder, held := lt.holders[doc]; held && holder != txn {
		return false
	}
	lt.holders[doc] = txn
	return true
}

// ReleaseAll frees every lock held by txn (commit/abort time, strict 2PL).
func (lt *LockTable) ReleaseAll(txn string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for doc, holder := range lt.holders {
		if holder == txn {
			delete(lt.holders, doc)
		}
	}
	lt.cond.Broadcast()
}

// Held reports whether txn holds doc, for tests.
func (lt *LockTable) Held(txn, doc string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.holders[doc] == txn
}
