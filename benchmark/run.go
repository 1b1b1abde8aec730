package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"axmltx/internal/sim/des"
)

// config is one run's frozen shape; only the driver's four arguments and
// -dir/-rate vary it from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window
	trace    bool
	dir      string  // WAL directories and trace files go under it
	rate     float64 // open_mix arrivals per second
	warmup   int     // warm-up operations before the window
	setups   int     // how often set-up is repeated; the last cluster is measured
	players  int     // players per local_rw document
}

const (
	// openRate is open_mix's frozen arrival rate: the highest of the rates
	// tried on the seed commit at which latency repeated from run to run,
	// about a seventh of the same mix's closed-loop capacity (see README).
	openRate = 250.0

	defaultSeconds = 20
	defaultWarmup  = 300
	defaultSetups  = 3
	defaultPlayers = 5000

	// settleGrace is how long a transaction may take to reach a terminal
	// record at every participant before it counts as failed.
	settleGrace = 2 * time.Second
)

// sample is one completed operation. Times are nanoseconds since epoch.
// In the open loop an operation that was due while every worker was busy
// waited queued for one; whatever else lies between its due time and its
// start is the generator itself waking late, which is the host's doing and
// reported as client.late_p95_ms, not charged to the system: latency and
// settle time count from begin, the start less the wait for a worker. In a
// closed loop due, begin and start are one instant.
type sample struct {
	due, start, end int64
	queued          int64
	kind            uint8
	ok              bool
}

func (s sample) begin() int64 { return s.start - s.queued }

// latency is what the client waited for the system.
func (s sample) latency() time.Duration { return time.Duration(s.end - s.begin()) }

// usage is the process's cumulative cost at an instant.
type usage struct {
	cpuNs   int64
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// window is everything measured between two instants.
type window struct {
	start, end int64
	slices     int  // one per whole second of the window, at least one
	open       bool // open loop: arrivals on a schedule, not on completions
	samples    []sample
	settles    []settleSample
	unsettled  int
	usage      []usage // one per slice boundary
}

// runner drives one workload on one cluster.
type runner struct {
	w   workload
	c   *cluster
	seq []int // next closed-loop operation per worker

	// The open loop's schedule spans the whole run; each window takes the
	// arrivals of its own stretch of it.
	openNext int   // first arrival not yet run
	openBase int64 // schedule time at which the next window starts
}

// setUp builds the cluster and runs the warm-up operations: connections
// dialled, caches and lazy set-up filled. It returns how long that took.
func setUp(cfg *config, w workload, rep int) (*runner, time.Duration, error) {
	start := time.Now()
	dir := filepath.Join(cfg.dir, fmt.Sprintf("wal-%s-%d-%d", cfg.workload, os.Getpid(), rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	c, err := w.build(cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	r := &runner{w: w, c: c, seq: make([]int, w.workers())}
	per := (cfg.warmup + w.workers() - 1) / w.workers()
	var wg sync.WaitGroup
	failed := make([]int, w.workers())
	for i := 0; i < w.workers(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				if s := r.closedOp(i); !s.ok {
					failed[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	_, unsettled := c.settle.drain(settleGrace)
	for _, f := range failed {
		unsettled += f
	}
	if unsettled > 0 {
		c.close()
		return nil, 0, fmt.Errorf("%s: %d warm-up operations failed or did not settle", cfg.workload, unsettled)
	}
	return r, time.Since(start), nil
}

// closedOp runs worker i's next closed-loop operation.
func (r *runner) closedOp(i int) sample {
	ops := r.w.closedOps(i)
	o := ops[r.seq[i]%len(ops)]
	r.seq[i]++
	start := now()
	return r.exec(i, o, start, start, 0)
}

// exec runs one operation that was due at due, starts at start and waited
// queued of the time between for a free worker.
func (r *runner) exec(worker int, o genOp, due, start, queued int64) sample {
	out := r.w.op(worker, o, start-queued)
	end := now()
	if r.c.rec.on.Load() {
		// The root span covers the execution only, so the roots of one
		// peer never overlap; in the open loop the wait for a free worker
		// is a span of its own.
		r.c.rec.add(span{Name: "client.txn", Peer: out.peer, Txn: out.txn, Start: start, End: end, G: goid(), Kind: opNames[o.kind]})
		if queued > 0 {
			r.c.rec.add(span{Name: "client.wait", Peer: out.peer, Txn: out.txn, Start: start - queued, End: start, Kind: opNames[o.kind]})
		}
	}
	return sample{due: due, queued: queued, start: start, end: end, kind: o.kind, ok: out.ok}
}

// measure runs the workload for d and returns what it observed. Process
// cost is read at every slice boundary.
func (r *runner) measure(d time.Duration) *window {
	win := &window{start: now(), slices: max(int(d/time.Second), 1)}
	win.end = win.start + int64(d)
	sliceLen := int64(d) / int64(win.slices)

	usageDone := make(chan struct{})
	go func() {
		defer close(usageDone)
		for i := 0; i <= win.slices; i++ {
			at := win.start + int64(i)*sliceLen
			time.Sleep(time.Duration(at - now()))
			win.usage = append(win.usage, readUsage())
		}
	}()

	perWorker := make([][]sample, r.w.workers())
	var wg sync.WaitGroup
	if open := r.w.openOps(); open != nil {
		win.open = true
		first := r.openNext
		for r.openNext < len(open) && open[r.openNext].due-r.openBase < int64(d) {
			r.openNext++
		}
		r.runOpen(open[first:r.openNext], win.start-r.openBase, perWorker, &wg)
		r.openBase += int64(d)
	} else {
		for i := range perWorker {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for now() < win.end {
					perWorker[i] = append(perWorker[i], r.closedOp(i))
				}
			}(i)
		}
	}
	wg.Wait()
	<-usageDone
	for _, s := range perWorker {
		win.samples = append(win.samples, s...)
	}
	win.settles, win.unsettled = r.c.settle.drain(settleGrace)
	return win
}

// runOpen runs a stretch of the arrival schedule, whose time zero is the
// instant zero, with one worker per slot. A free worker
// claims the next operation in arrival order and, if it is not yet due,
// sleeps until it is; when every worker is busy, arrivals wait and their
// wait counts, because latency is timed from the due time. The schedule is
// fixed beforehand, so a slow system cannot slow its own arrivals down.
func (r *runner) runOpen(ops []genOp, zero int64, perWorker [][]sample, wg *sync.WaitGroup) {
	var next atomic.Int64
	for i := range perWorker {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(ops) {
					return
				}
				due := zero + ops[n].due
				// Claimed after it was due: no worker was free, it queued.
				queued := max(now()-due, 0)
				sleepUntil(due)
				perWorker[i] = append(perWorker[i], r.exec(i, ops[n], due, now(), queued))
			}
		}(i)
	}
}

// sleepUntil blocks the calling thread until at. The runtime's timers wake
// up to a millisecond late on an idle process, as long as an open_mix
// operation takes; nanosleep is late by tens of microseconds.
func sleepUntil(at int64) {
	if d := at - now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func sortedCopy(v []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quietQuarter summarizes per-slice values by their better quartile: the
// 25th percentile of costs and latencies, the 75th of rates. Another
// tenant of the host can only slow a slice down, and at times does so for
// a good part of a run, so the quarter of the seconds least disturbed says
// most about the code and repeats best; a change to the code moves every
// slice and with it this number.
func quietQuarter(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := (len(s) - 1) / 4
	if higherIsBetter {
		rank = len(s) - 1 - rank
	}
	return s[rank]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// endToEnd is the nine gated metrics of one window.
type endToEnd struct {
	txnPerS, p50ms, p90ms, p95ms             float64
	settleP50ms, settleP90ms, settleP95ms    float64
	cpuMsPerTxn, allocsPerTxn, allocKBPerTxn float64
	samples, settleSamples                   int
}

// sliceOf places an instant in one of the window's slices; operations that
// finish after the window closes (the open loop's drain) join the last.
func (w *window) sliceOf(at int64) int {
	i := int((at - w.start) / ((w.end - w.start) / int64(w.slices)))
	if i < 0 {
		return 0
	}
	if i >= w.slices {
		return w.slices - 1
	}
	return i
}

// summarize computes every timing, rate and cost metric per one-second
// slice and reports the slices' better quartile (see quietQuarter).
func (w *window) summarize() endToEnd {
	lat, settle := make([][]time.Duration, w.slices), make([][]time.Duration, w.slices)
	for _, s := range w.samples {
		if !s.ok {
			continue
		}
		i := w.sliceOf(s.end)
		lat[i] = append(lat[i], s.latency())
		if s.kind == opAssemble {
			// No transaction, nothing left to settle when the call returns.
			settle[i] = append(settle[i], s.latency())
		}
	}
	for _, s := range w.settles {
		i := w.sliceOf(s.at)
		settle[i] = append(settle[i], time.Duration(s.dur))
	}
	sliceSec := float64(w.end-w.start) / float64(w.slices) / 1e9
	var e endToEnd
	var rate, p50, p90, p95, s50, s90, s95, cpu, allocs, kb []float64
	for i := 0; i < w.slices; i++ {
		n := float64(len(lat[i]))
		if n == 0 {
			continue
		}
		e.samples += len(lat[i])
		l := sortedCopy(lat[i])
		rate = append(rate, n/sliceSec)
		p50, p90, p95 = append(p50, ms(des.Percentile(l, 0.5))), append(p90, ms(des.Percentile(l, 0.9))), append(p95, ms(des.Percentile(l, 0.95)))
		if len(settle[i]) > 0 {
			e.settleSamples += len(settle[i])
			s := sortedCopy(settle[i])
			s50, s90, s95 = append(s50, ms(des.Percentile(s, 0.5))), append(s90, ms(des.Percentile(s, 0.9))), append(s95, ms(des.Percentile(s, 0.95)))
		}
		if len(w.usage) == w.slices+1 {
			a, b := w.usage[i], w.usage[i+1]
			cpu = append(cpu, float64(b.cpuNs-a.cpuNs)/1e6/n)
			allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
			kb = append(kb, float64(b.bytes-a.bytes)/1024/n)
		}
	}
	e.txnPerS = quietQuarter(rate, true)
	e.p50ms, e.p90ms, e.p95ms = quietQuarter(p50, false), quietQuarter(p90, false), quietQuarter(p95, false)
	if w.open {
		// An open loop completes what arrived: per slice that is the
		// schedule's own Poisson scatter, not the system's doing. Count the
		// whole window instead, up to the last completion.
		last := w.end
		for _, s := range w.samples {
			if s.end > last {
				last = s.end
			}
		}
		e.txnPerS = float64(e.samples) / (float64(last-w.start) / 1e9)
	}
	e.settleP50ms, e.settleP90ms, e.settleP95ms = quietQuarter(s50, false), quietQuarter(s90, false), quietQuarter(s95, false)
	e.cpuMsPerTxn, e.allocsPerTxn, e.allocKBPerTxn = quietQuarter(cpu, false), quietQuarter(allocs, false), quietQuarter(kb, false)
	return e
}

// failures counts operations that errored or failed their inline check.
func (w *window) failures() int {
	n := 0
	for _, s := range w.samples {
		if !s.ok {
			n++
		}
	}
	return n + w.unsettled
}
