package core

import (
	"context"
	"sync"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/xmldom"
)

// Scheduler drives the periodic invocation mode of embedded service calls:
// "An embedded service call may be invoked ... periodically (specified by
// the frequency attribute of the AXML service call tag)" (§1). Each due
// call is materialized in a short transaction of its own, so a failure
// compensates that refresh only.
type Scheduler struct {
	peer *Peer
	tick time.Duration

	mu      sync.Mutex
	lastRun map[xmldom.NodeID]time.Time
	cancel  chan struct{}
	done    chan struct{}
	runs    int64
	errs    int64
}

// StartScheduler launches a scheduler scanning this peer's documents every
// tick for frequency-annotated service calls that are due. Stop it with
// Stop.
func (p *Peer) StartScheduler(tick time.Duration) *Scheduler {
	s := &Scheduler{
		peer:    p,
		tick:    tick,
		lastRun: make(map[xmldom.NodeID]time.Time),
		cancel:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *Scheduler) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.cancel:
			return
		case <-ticker.C:
			s.RunDue(time.Now())
		}
	}
}

// Stop terminates the scheduler and waits for the loop to exit.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	select {
	case <-s.cancel:
	default:
		close(s.cancel)
	}
	s.mu.Unlock()
	<-s.done
}

// Runs returns the number of successful periodic materializations.
func (s *Scheduler) Runs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// Errors returns the number of failed (and compensated) refreshes.
func (s *Scheduler) Errors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errs
}

// due is one frequency-annotated call found during a scan.
type due struct {
	doc  string
	scID xmldom.NodeID
}

// RunDue materializes every frequency-annotated call whose interval has
// elapsed at time now. It is exported so tests and simulations can drive
// the scheduler deterministically without the timer loop.
func (s *Scheduler) RunDue(now time.Time) {
	var found []due
	for _, name := range s.peer.Store().Names() {
		snap, ok := s.peer.Store().Snapshot(name)
		if !ok {
			continue
		}
		for _, sc := range axml.TopLevelServiceCalls(snap) {
			freq, ok := sc.Frequency()
			if !ok {
				continue
			}
			s.mu.Lock()
			last, seen := s.lastRun[sc.ID()]
			dueNow := !seen || now.Sub(last) >= freq
			if dueNow {
				s.lastRun[sc.ID()] = now
			}
			s.mu.Unlock()
			if dueNow {
				found = append(found, due{doc: name, scID: sc.ID()})
			}
		}
	}
	for _, d := range found {
		s.refresh(d)
	}
}

// refresh materializes one call in its own transaction.
func (s *Scheduler) refresh(d due) {
	p := s.peer
	bg := context.Background()
	txc := p.Begin()
	if err := p.locks.Acquire(txc.ID, d.doc); err != nil {
		_ = p.Abort(bg, txc)
		s.countErr()
		return
	}
	if _, err := p.Store().MaterializeCall(txc.ID, d.doc, d.scID, p); err != nil {
		_ = p.Abort(bg, txc)
		s.countErr()
		return
	}
	if err := p.Commit(bg, txc); err != nil {
		s.countErr()
		return
	}
	s.mu.Lock()
	s.runs++
	s.mu.Unlock()
}

func (s *Scheduler) countErr() {
	s.mu.Lock()
	s.errs++
	s.mu.Unlock()
}
