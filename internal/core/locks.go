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

// LockMode is the requested access.
type LockMode uint8

const (
	// LockShared allows concurrent readers.
	LockShared LockMode = iota + 1
	// LockExclusive is required by any document-modifying operation —
	// including queries, since lazy materialization writes (§3.1); this is
	// why the paper considers classic XML lock protocols ill-suited to
	// "active" documents, and why our isolation unit is the document.
	LockExclusive
)

// LockTable provides per-document two-phase locking with txn ownership,
// re-entrancy and lock upgrade. Growth happens as operations execute;
// shrink happens only at commit/abort (strict 2PL), which combined with
// compensation-based recovery gives the relaxed isolation of the framework.
type LockTable struct {
	mu      sync.Mutex
	cond    *sync.Cond
	locks   map[string]*docLock
	timeout time.Duration
	// waits observes how long each contended Acquire waited (granted or
	// timed out); nil until observeWaits.
	waits *obs.Histogram
}

type docLock struct {
	// holders maps txn -> mode currently held.
	holders map[string]LockMode
}

// NewLockTable creates a table with the given acquisition timeout.
func NewLockTable(timeout time.Duration) *LockTable {
	lt := &LockTable{locks: make(map[string]*docLock), timeout: timeout}
	lt.cond = sync.NewCond(&lt.mu)
	return lt
}

// Acquire obtains doc for txn in the given mode, blocking up to the table
// timeout. Re-acquiring an already-held lock succeeds immediately; holding
// shared and requesting exclusive upgrades when no other holder exists.
func (lt *LockTable) Acquire(txn, doc string, mode LockMode) error {
	lt.mu.Lock()
	if lt.grant(txn, doc, mode) {
		lt.mu.Unlock()
		return nil
	}
	// Contended. The wait is observed once lt.mu is released, outside the
	// critical section every locker shares.
	start, waits := time.Now(), lt.waits
	err := lt.waitLocked(txn, doc, mode, start)
	lt.mu.Unlock()
	waits.Observe(time.Since(start))
	return err
}

// waitLocked waits from start until txn is granted doc or the table
// timeout passes; the caller holds lt.mu. The condition-variable wait
// cannot time out by itself, so a waker goroutine broadcasts at the
// deadline and waiters re-check.
func (lt *LockTable) waitLocked(txn, doc string, mode LockMode, start time.Time) error {
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
		if lt.grant(txn, doc, mode) {
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

// grant records txn as a holder of doc in mode when the compatibility
// matrix allows it; the caller holds lt.mu.
func (lt *LockTable) grant(txn, doc string, mode LockMode) bool {
	dl, ok := lt.locks[doc]
	if !ok {
		dl = &docLock{holders: make(map[string]LockMode)}
		lt.locks[doc] = dl
	}
	if !lt.grantable(dl, txn, mode) {
		return false
	}
	if cur, held := dl.holders[txn]; !held || mode > cur {
		dl.holders[txn] = mode
	}
	return true
}

// grantable implements the compatibility matrix with upgrade support; the
// caller holds lt.mu.
func (lt *LockTable) grantable(dl *docLock, txn string, mode LockMode) bool {
	for holder, held := range dl.holders {
		if holder == txn {
			continue
		}
		if mode == LockExclusive || held == LockExclusive {
			return false
		}
	}
	return true
}

// ReleaseAll frees every lock held by txn (commit/abort time, strict 2PL).
func (lt *LockTable) ReleaseAll(txn string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for doc, dl := range lt.locks {
		if _, ok := dl.holders[txn]; ok {
			delete(dl.holders, txn)
			if len(dl.holders) == 0 {
				delete(lt.locks, doc)
			}
		}
	}
	lt.cond.Broadcast()
}

// Held reports the mode txn holds on doc (0 when none), for tests.
func (lt *LockTable) Held(txn, doc string) LockMode {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if dl, ok := lt.locks[doc]; ok {
		return dl.holders[txn]
	}
	return 0
}
