package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/membership"
	"axmltx/internal/obs"
	"axmltx/internal/obs/cluster"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/sim/des"
	"axmltx/internal/wal"
)

// LoadConfig parameterizes experiment L1, the open-loop load harness: a
// Poisson arrival process at a target rate drives a zipfian document/service
// mix against a real multi-peer cluster (real engine, real gossip, real
// cluster observability plane — only the network is in-memory).
type LoadConfig struct {
	// Peers is the cluster size (>= 2; the acceptance run uses >= 3).
	Peers int
	// Rate is the target arrival rate in ops/sec (open loop: arrivals do
	// not wait for completions).
	Rate float64
	// Ops is the total number of arrivals.
	Ops int
	// Keys is the parameter universe for the zipfian query mix.
	Keys int
	// UpdateFrac is the fraction of ops invoking the update (write) service
	// instead of the query service. Default 0.2.
	UpdateFrac float64
	// Seed feeds every random choice (arrival gaps, origins, providers,
	// keys, mix).
	Seed int64
	// SLO configures the plane's objectives for the run. The latency family
	// defaults to axml_load_seconds — the per-op histogram both sides of
	// the cross-check observe.
	SLO cluster.SLOConfig
}

// LoadResult is the L1 digest. The headline acceptance signal is the
// cross-check: cluster-plane percentiles (estimated from gossip-merged
// histogram buckets on one peer) against exact client-side percentiles over
// the same per-op durations. Both sides observe the identical samples, so
// the plane estimate must land within the containing histogram bucket's
// width of the exact value (the estimator's documented error bound) —
// provided the plane really converged, which is what the experiment proves.
type LoadResult struct {
	Name         string  `json:"name"`
	Peers        int     `json:"peers"`
	TargetRate   float64 `json:"target_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	Ops          int     `json:"ops"`
	Failed       int     `json:"failed"`
	Availability float64 `json:"availability"`
	ElapsedSec   float64 `json:"elapsed_sec"`

	ClientP50Micros float64 `json:"client_p50_us"`
	ClientP99Micros float64 `json:"client_p99_us"`
	PlaneP50Micros  float64 `json:"plane_p50_us"`
	PlaneP99Micros  float64 `json:"plane_p99_us"`
	// Tolerances are the widths of the histogram buckets containing the
	// exact client percentiles — the documented error bound of the plane's
	// bucket-quantile estimator.
	ToleranceP50Micros float64 `json:"tolerance_p50_us"`
	ToleranceP99Micros float64 `json:"tolerance_p99_us"`
	PlaneWithinTol     bool    `json:"plane_within_tolerance"`
	// PlaneSamples counts axml_load_seconds observations visible in the
	// serving peer's merged view; equality with Ops proves every peer's
	// final summary converged to the serving peer.
	PlaneSamples int64 `json:"plane_samples"`
	PlanePeers   int   `json:"plane_peers"`

	SLO cluster.SLOStatus `json:"slo"`
}

// RunLoadExperiment builds the cluster, drives the open-loop workload, then
// converges gossip and reads the merged view from the first peer.
func RunLoadExperiment(cfg LoadConfig) LoadResult {
	if cfg.Peers < 2 || cfg.Ops < 1 || cfg.Rate <= 0 || cfg.Keys < 2 {
		panic("sim: RunLoadExperiment needs peers>=2, ops>=1, rate>0, keys>=2")
	}
	if cfg.UpdateFrac <= 0 {
		cfg.UpdateFrac = 0.2
	}
	if cfg.SLO.LatencyFamily == "" {
		cfg.SLO.LatencyFamily = "axml_load_seconds"
	}
	n := cfg.Peers
	net := p2p.NewNetwork(0)
	ctx := context.Background()

	peers := make([]*core.Peer, n)
	gs := make([]*membership.Gossip, n)
	hists := make([]*obs.Histogram, n)
	for i := 0; i < n; i++ {
		id := p2p.PeerID(fmt.Sprintf("AP%d", i+1))
		tr := net.Join(id)
		reg := obs.NewRegistry() // one registry per peer, like production
		gs[i] = membership.New(tr, membership.Config{
			Seeds:    []p2p.PeerID{p2p.PeerID(fmt.Sprintf("AP%d", (i+1)%n+1))},
			Registry: reg,
		})
		peers[i] = core.NewPeer(tr, wal.NewMemory(), core.Options{
			Membership:      gs[i],
			MetricsRegistry: reg,
			SLO:             cfg.SLO,
		})
		hists[i] = reg.Histogram("axml_load_seconds", obs.Labels{"peer": string(id)})

		// Every peer provides the query service and one writable document
		// behind an update service, so the zipfian provider pick spreads
		// real reads and real (lock + WAL) writes across the cluster.
		peers[i].HostService(services.NewFuncService(
			services.Descriptor{Name: "lookup", ResultName: "r"},
			func(ctx context.Context, params map[string]string) ([]string, error) {
				time.Sleep(100 * time.Microsecond) // modeled service work
				return []string{fmt.Sprintf("<r>%s</r>", params["k"])}, nil
			}))
		if err := peers[i].HostDocument(fmt.Sprintf("D-%s.xml", id), `<D><slot v="0"/></D>`); err != nil {
			panic(err)
		}
		peers[i].HostUpdateService(services.Descriptor{
			Name: "refresh", ResultName: "updateResult",
			TargetDocument: fmt.Sprintf("D-%s.xml", id),
		}, `<action type="replace"><data><slot v="1"/></data><location>Select s from s in D/slot;</location></action>`)
	}

	converge := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for _, g := range gs {
				g.Tick(ctx)
			}
		}
	}
	converge(3 * n) // member + catalog discovery before load

	// Pre-draw every op's randomness single-threaded, so the arrival loop
	// only sleeps and spawns.
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.Keys-1))
	provZipf := rand.NewZipf(rng, 1.2, 1, uint64(n-2))
	type op struct {
		origin, provider int
		update           bool
		key              uint64
		gap              time.Duration
	}
	ops := make([]op, cfg.Ops)
	for i := range ops {
		o := op{
			origin: rng.Intn(n),
			update: rng.Float64() < cfg.UpdateFrac,
			key:    zipf.Uint64(),
			gap:    time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)),
		}
		// Zipfian provider pick among the other peers: hot providers stay
		// hot regardless of origin.
		o.provider = (o.origin + 1 + int(provZipf.Uint64())) % n
		ops[i] = o
	}

	// Gossip keeps running during the load so summaries flow while ops are
	// in flight — the plane is supposed to be a live view, not a post-hoc
	// aggregation.
	gossipStop := make(chan struct{})
	var gossipDone sync.WaitGroup
	gossipDone.Add(1)
	go func() {
		defer gossipDone.Done()
		for {
			select {
			case <-gossipStop:
				return
			default:
			}
			for _, g := range gs {
				g.Tick(ctx)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var (
		mu     sync.Mutex
		lat    = make([]time.Duration, 0, cfg.Ops)
		failed int
		wg     sync.WaitGroup
	)
	start := time.Now()
	for i := range ops {
		o := ops[i]
		time.Sleep(o.gap) // open loop: the arrival process never blocks on completions
		wg.Add(1)
		go func() {
			defer wg.Done()
			origin := peers[o.origin]
			provider := p2p.PeerID(fmt.Sprintf("AP%d", o.provider+1))
			svc, params := "lookup", map[string]string{"k": fmt.Sprintf("S%d", o.key)}
			if o.update {
				svc, params = "refresh", nil
			}
			t0 := time.Now()
			txc := origin.Begin()
			_, err := origin.Call(ctx, txc, provider, svc, params)
			if err == nil {
				err = origin.Commit(ctx, txc)
			} else {
				_ = origin.Abort(ctx, txc)
			}
			d := time.Since(t0)
			// The exact same sample goes to the client-side record and the
			// origin's axml_load_seconds histogram: any disagreement between
			// the two percentile readings is bucketing (bounded) or a plane
			// convergence bug (what the cross-check is for).
			hists[o.origin].Observe(d)
			mu.Lock()
			lat = append(lat, d)
			if err != nil {
				failed++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(gossipStop)
	gossipDone.Wait()

	// Final deterministic rounds: every peer re-captures (now complete)
	// local histograms and push-pull floods them; 3n rounds of fanout-2
	// full-state sync far exceed the diameter.
	converge(3*n + 4)

	plane := peers[0].Cluster()
	view := plane.View()
	p50s, samples := plane.Quantile("axml_load_seconds", 0.50)
	p99s, _ := plane.Quantile("axml_load_seconds", 0.99)

	sorted := append([]time.Duration(nil), lat...)
	res := LoadResult{
		Name:           "l1",
		Peers:          n,
		TargetRate:     cfg.Rate,
		AchievedRate:   float64(cfg.Ops) / elapsed.Seconds(),
		Ops:            cfg.Ops,
		Failed:         failed,
		Availability:   float64(cfg.Ops-failed) / float64(cfg.Ops),
		ElapsedSec:     elapsed.Seconds(),
		PlaneP50Micros: p50s * 1e6,
		PlaneP99Micros: p99s * 1e6,
		PlaneSamples:   samples,
		PlanePeers:     len(view.Peers),
		SLO:            view.SLO,
	}
	sortDurations(sorted)
	clientP50 := des.Percentile(sorted, 0.50)
	clientP99 := des.Percentile(sorted, 0.99)
	res.ClientP50Micros = float64(clientP50.Microseconds())
	res.ClientP99Micros = float64(clientP99.Microseconds())
	res.ToleranceP50Micros = tolMicros(clientP50)
	res.ToleranceP99Micros = tolMicros(clientP99)
	res.PlaneWithinTol = math.Abs(res.PlaneP50Micros-res.ClientP50Micros) <= res.ToleranceP50Micros &&
		math.Abs(res.PlaneP99Micros-res.ClientP99Micros) <= res.ToleranceP99Micros
	return res
}

// LoadDefaults are the two reference parameter sets of experiment L1: the
// full run and the CI quick configuration. Light and loaded variants share
// everything but the arrival rate (and op count, to keep wall time flat):
// the loaded/light p99 ratio is the machine-independent number the
// `-compare` gate tracks as load_p99_ratio.
func LoadDefaults(quick bool) (light, loaded LoadConfig) {
	// Reference objectives: p99 under 50ms on the load family, 99% commits,
	// judged over a window comfortably longer than the run so the whole run
	// counts. Generous on an in-memory cluster — they exist so the SLO
	// engine renders real verdicts in L1 output, not to gate the run.
	slo := cluster.SLOConfig{
		LatencyTarget: 50 * time.Millisecond,
		Availability:  0.99,
		Window:        time.Minute,
	}
	if quick {
		light = LoadConfig{Peers: 3, Rate: 300, Ops: 150, Keys: 8, Seed: 1, SLO: slo}
		loaded = LoadConfig{Peers: 3, Rate: 2500, Ops: 1000, Keys: 8, Seed: 1, SLO: slo}
		return light, loaded
	}
	light = LoadConfig{Peers: 5, Rate: 500, Ops: 600, Keys: 16, Seed: 1, SLO: slo}
	loaded = LoadConfig{Peers: 5, Rate: 4000, Ops: 6000, Keys: 16, Seed: 1, SLO: slo}
	return light, loaded
}

// RunLoadRows runs the light and loaded L1 variants and renders them as
// perf-suite rows, so `axmlbench -run perf` JSON (and the CI baseline
// comparison) carries the open-loop latency picture alongside the
// microbenchmarks. Percentiles are the exact client-side values — the
// plane cross-check is L1's own gate, not the perf suite's.
func RunLoadRows(quick bool) []PerfResult {
	light, loaded := LoadDefaults(quick)
	lr := RunLoadExperiment(light)
	hr := RunLoadExperiment(loaded)
	toRow := func(name string, r LoadResult) PerfResult {
		return PerfResult{
			Name:      name,
			Ops:       r.Ops,
			OpsPerSec: r.AchievedRate,
			P50Micros: r.ClientP50Micros,
			P99Micros: r.ClientP99Micros,
		}
	}
	return []PerfResult{toRow("load_l1_light", lr), toRow("load_l1_loaded", hr)}
}

// tolMicros is the bucket width around an exact sample value — the
// documented tolerance of the plane/client percentile cross-check.
func tolMicros(d time.Duration) float64 {
	w := cluster.BucketWidth(obs.DefaultBuckets, d.Seconds())
	if math.IsInf(w, 1) {
		// Beyond the last finite bound the estimator clamps; no finite
		// tolerance exists. Surface it as the full last bucket width so the
		// caller still gets a number (the verdict will flag the clamp).
		w = obs.DefaultBuckets[len(obs.DefaultBuckets)-1]
	}
	return w * 1e6
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
