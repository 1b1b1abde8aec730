package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLockExclusiveConflicts(t *testing.T) {
	lt := NewLockTable(30 * time.Millisecond)
	if err := lt.Acquire("t1", "d"); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire("t2", "d"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("exclusive under exclusive: %v", err)
	}
	// Different document is free.
	if err := lt.Acquire("t2", "other"); err != nil {
		t.Fatal(err)
	}
}

func TestLockReentrant(t *testing.T) {
	lt := NewLockTable(30 * time.Millisecond)
	if err := lt.Acquire("t1", "d"); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire("t1", "d"); err != nil {
		t.Fatal("re-acquire failed")
	}
	if !lt.Held("t1", "d") || lt.Held("t2", "d") {
		t.Fatal("Held")
	}
}

func TestLockReleaseWakesWaiters(t *testing.T) {
	lt := NewLockTable(2 * time.Second)
	if err := lt.Acquire("t1", "d"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- lt.Acquire("t2", "d")
	}()
	time.Sleep(10 * time.Millisecond)
	lt.ReleaseAll("t1")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
	if lt.Held("t1", "d") {
		t.Fatal("t1 still holds after release")
	}
}

func TestLockTimeoutBreaksDeadlock(t *testing.T) {
	lt := NewLockTable(60 * time.Millisecond)
	if err := lt.Acquire("t1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire("t2", "b"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); err1 = lt.Acquire("t1", "b") }()
	go func() { defer wg.Done(); err2 = lt.Acquire("t2", "a") }()
	wg.Wait()
	if err1 == nil && err2 == nil {
		t.Fatal("deadlock not broken")
	}
}

func TestLockManyConcurrentTxns(t *testing.T) {
	lt := NewLockTable(2 * time.Second)
	var wg sync.WaitGroup
	counter := 0
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			txn := string(rune('a' + n))
			if err := lt.Acquire(txn, "d"); err != nil {
				t.Error(err)
				return
			}
			counter++ // exclusive lock protects this
			lt.ReleaseAll(txn)
		}(i)
	}
	wg.Wait()
	if counter != 20 {
		t.Fatalf("counter = %d (lost updates => broken exclusion)", counter)
	}
}

// TestLockContendedTimesOutAtDeadline: a waiter on a held lock gets
// ErrLockTimeout once the table timeout has passed, not before and not long
// after.
func TestLockContendedTimesOutAtDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	lt := NewLockTable(timeout)
	if err := lt.Acquire("t1", "d"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := lt.Acquire("t2", "d")
	waited := time.Since(start)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("contended acquire: %v, want ErrLockTimeout", err)
	}
	if waited < timeout || waited > timeout+time.Second {
		t.Fatalf("contended acquire returned after %v, want about %v", waited, timeout)
	}
}

// TestLockUncontendedAllocs: granting a free lock arms no timeout timer, so
// an acquire/release pair allocates only the lock's entry and its holder
// map (3 objects; 6 when every acquire armed a timer).
func TestLockUncontendedAllocs(t *testing.T) {
	lt := NewLockTable(time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		if err := lt.Acquire("t1", "d"); err != nil {
			t.Fatal(err)
		}
		lt.ReleaseAll("t1")
	})
	if allocs > 3 {
		t.Fatalf("uncontended acquire/release allocates %v objects, want at most 3 (no timer)", allocs)
	}
}
