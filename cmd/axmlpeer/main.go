// Command axmlpeer runs one AXML peer as a standalone process over TCP.
// The peer is described by an XML configuration file:
//
//	<peer id="AP2" listen="127.0.0.1:7002" super="false">
//	  <neighbor id="AP1" addr="127.0.0.1:7001"/>
//	  <document name="Points.xml" file="points.xml"/>
//	  <document name="Inline.xml"><Inline><x/></Inline></document>
//	  <queryService name="getPoints" resultName="points" doc="Points.xml">
//	    Select r/points from r in Points//row where r/@player = $name
//	  </queryService>
//	  <updateService name="setPoints" doc="Points.xml">
//	    &lt;action type="replace"&gt;...&lt;/action&gt;
//	  </updateService>
//	  <replica service="getPoints" peer="AP5"/>
//	</peer>
//
// Run several peers, then drive them with cmd/axmlquery:
//
//	axmlpeer -config ap2.xml &
//	axmlquery -addr 127.0.0.1:7002 -invoke getPoints name="Roger Federer"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/membership"
	"axmltx/internal/obs"
	obscluster "axmltx/internal/obs/cluster"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

func main() {
	var s settings
	flag.StringVar(&s.config, "config", "", "peer configuration XML file (required)")
	flag.StringVar(&s.dir, "dir", "", "durable state directory (default: in-memory). DIR/wal holds the operation log: commit, abort and compensate-end records and each served reply wait for the disk, concurrent waits share an fsync (group commit), and segments rotate, checkpoint and compact. DIR/docs holds the document checkpoints: loaded over the configured documents at startup, before in-flight transactions are compensated and the peer serves, and saved at shutdown")
	flag.Int64Var(&s.wal.MaxSegmentBytes, "walseg", 0, "segment rotation threshold in bytes (0: 4 MiB default; needs -dir)")
	flag.IntVar(&s.wal.CheckpointEvery, "walcheckpoint", 0, "checkpoint the log automatically every N appends, compacting covered segments in the background (0 disables; needs -dir)")
	flag.StringVar(&s.httpAddr, "http", "", `observability HTTP listen address, e.g. 127.0.0.1:9100 or :9100, serving /metrics (Prometheus text format), /trace/{txn} (span tree as JSON), /traces, /healthz and /debug/pprof/ (default: disabled)`)
	flag.Float64Var(&s.sample, "sample", 0, "adaptive trace sampling keep-rate for fast clean commits, 0 < rate < 1 (0 disables sampling: every span is kept; errors/aborts/faults/slow transactions are always kept when sampling)")
	flag.DurationVar(&s.slowTxn, "slowtxn", 0, "log origin transactions slower than this and force-keep their traces, e.g. 250ms (0 disables)")
	flag.DurationVar(&s.gossip, "gossip", 0, "enable SWIM gossip membership with this probe interval, e.g. 1s: the configured neighbors become gossip seeds, the replica catalog is maintained by announcements instead of static <replica> entries alone, failure detection feeds recovery, and /members reports the live view (0 disables; replaces the static neighbor pinger)")
	flag.IntVar(&s.cache, "cache", 0, "semantic materialization-cache capacity in entries: identical service calls within their frequency-derived freshness window are served from cache, with singleflight dedupe of concurrent calls and — with -gossip — cluster-wide dedupe through call advertisements (0 disables)")
	flag.DurationVar(&s.cacheTTL, "cachettl", 0, "freshness window for cacheable calls that declare no frequency attribute, e.g. 30s (0: such calls stay uncached; needs -cache)")
	slo := flag.String("slo", "", `cluster SLO targets for the observability plane as comma-separated key=value pairs, e.g. "p99=50ms,avail=0.999,window=5m" (keys: p99 latency target, avail commit-fraction target, window burn-rate window, family histogram family; needs -gossip, which carries the metric summaries the plane merges)`)
	flag.BoolVar(&s.shard, "shard", false, "split hosted documents into subtree fragments at startup: fragments get stable IDs, are announced into the replica catalog (with -gossip), and are served to remote assemblers over fragment-fetch messages")
	flag.IntVar(&s.shardThreshold, "shardthreshold", 0, "minimum subtree node count for a child of the root to become its own fragment (0: built-in default; needs -shard)")
	flag.DurationVar(&s.placement, "placement", 0, "run the heat-driven placement loop with this tick interval, e.g. 2s: fragments whose access heat is dominated by one remote caller migrate to that caller, with catalog-versioned handoff (0 disables; needs -shard and -gossip)")
	flag.Parse()
	if s.config == "" {
		fatalUsage("the -config flag is required")
	}
	if s.wal.MaxSegmentBytes < 0 {
		fatalUsage(fmt.Sprintf("invalid -walseg %d (want 0 for the default, or a positive byte count)", s.wal.MaxSegmentBytes))
	}
	if s.wal.CheckpointEvery < 0 {
		fatalUsage(fmt.Sprintf("invalid -walcheckpoint %d (want 0 to disable, or a positive append count)", s.wal.CheckpointEvery))
	}
	if s.wal != (wal.SegmentOptions{}) && s.dir == "" {
		fatalUsage("-walseg and -walcheckpoint need -dir to enable the durable log")
	}
	if s.httpAddr != "" {
		if _, err := net.ResolveTCPAddr("tcp", s.httpAddr); err != nil {
			fatalUsage(fmt.Sprintf("invalid -http address %q: %v (want host:port or :port)", s.httpAddr, err))
		}
	}
	if s.sample < 0 || s.sample >= 1 {
		fatalUsage(fmt.Sprintf("invalid -sample rate %v (want 0 to disable, or 0 < rate < 1)", s.sample))
	}
	if s.cache < 0 {
		fatalUsage(fmt.Sprintf("invalid -cache capacity %d (want 0 to disable, or a positive entry count)", s.cache))
	}
	if s.cacheTTL < 0 {
		fatalUsage(fmt.Sprintf("invalid -cachettl %v (want 0 to disable, or a positive duration)", s.cacheTTL))
	}
	if s.cacheTTL > 0 && s.cache == 0 {
		fatalUsage("-cachettl needs -cache to enable the materialization cache")
	}
	var err error
	if s.slo, err = parseSLO(*slo); err != nil {
		fatalUsage(err.Error())
	}
	if *slo != "" && s.gossip == 0 {
		fatalUsage("-slo needs -gossip: the cluster plane rides on gossiped metric summaries")
	}
	if s.shardThreshold < 0 {
		fatalUsage(fmt.Sprintf("invalid -shardthreshold %d (want 0 for the default, or a positive node count)", s.shardThreshold))
	}
	if s.shardThreshold > 0 && !s.shard {
		fatalUsage("-shardthreshold needs -shard to enable document sharding")
	}
	if s.placement < 0 {
		fatalUsage(fmt.Sprintf("invalid -placement interval %v (want 0 to disable, or a positive duration)", s.placement))
	}
	if s.placement > 0 && !s.shard {
		fatalUsage("-placement needs -shard: only fragment owners run the placement loop")
	}
	if s.placement > 0 && s.gossip == 0 {
		fatalUsage("-placement needs -gossip: migration handoff rides the gossiped replica catalog")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, s); err != nil {
		log.Fatalf("axmlpeer: %v", err)
	}
}

// settings are the parsed flags a peer runs with.
type settings struct {
	config         string
	dir            string // "": the log and the documents stay in memory
	wal            wal.SegmentOptions
	httpAddr       string
	sample         float64
	slowTxn        time.Duration
	gossip         time.Duration
	cache          int
	cacheTTL       time.Duration
	slo            obscluster.SLOConfig
	shard          bool // split hosted documents into fragments at startup
	shardThreshold int
	placement      time.Duration // the heat-driven placement loop's tick
}

// parseSLO turns the -slo flag ("p99=50ms,avail=0.999,window=5m") into the
// plane's objective configuration. Empty input is the zero config: the SLO
// engine still reports estimates, it just never judges them.
func parseSLO(s string) (obscluster.SLOConfig, error) {
	var cfg obscluster.SLOConfig
	if s == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("invalid -slo entry %q (want key=value)", part)
		}
		switch k {
		case "p99":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("invalid -slo p99 %q (want a positive duration like 50ms)", v)
			}
			cfg.LatencyTarget = d
			cfg.LatencyQuantile = 0.99
		case "avail":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f >= 1 {
				return cfg, fmt.Errorf("invalid -slo avail %q (want a fraction like 0.999)", v)
			}
			cfg.Availability = f
		case "window":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("invalid -slo window %q (want a positive duration like 5m)", v)
			}
			cfg.Window = d
		case "family":
			cfg.LatencyFamily = v
		default:
			return cfg, fmt.Errorf("unknown -slo key %q (want p99, avail, window, or family)", k)
		}
	}
	return cfg, nil
}

// fatalUsage reports a flag error together with the full usage text, so
// a bad invocation never fails silently.
func fatalUsage(msg string) {
	fmt.Fprintf(os.Stderr, "axmlpeer: %s\n\n", msg)
	flag.Usage()
	os.Exit(2)
}

// run serves one peer until ctx is done, then closes it.
func run(ctx context.Context, s settings) (err error) {
	raw, err := os.ReadFile(s.config)
	if err != nil {
		return err
	}
	cfg, err := xmldom.ParseString(s.config, string(raw))
	if err != nil {
		return err
	}
	root := cfg.Root()
	if root.Name() != "peer" {
		return fmt.Errorf("config root must be <peer>, got <%s>", root.Name())
	}
	id := p2p.PeerID(root.AttrDefault("id", ""))
	listen := root.AttrDefault("listen", "127.0.0.1:0")
	if id == "" {
		return fmt.Errorf("config: peer id is required")
	}

	transport, err := p2p.ListenTCP(id, listen)
	if err != nil {
		return err
	}
	defer transport.Close()

	// The observability pair: every transaction's span tree lands in the
	// ring, the registry carries the protocol counters and latency
	// histograms. Both also answer the "metrics"/"trace" admin subjects used
	// by axmlquery, so they are wired even without -http. With -sample an
	// adaptive tail-based sampler sits in front of the ring: failed,
	// compensated and slow transactions are always kept, fast clean commits
	// survive with the given probability.
	ring := obs.NewRing(0)
	registry := obs.NewRegistry()
	var sink obs.Sink = ring
	var sampler *obs.Sampler
	if s.sample > 0 {
		sampler = obs.NewSampler(ring, obs.SamplerConfig{KeepRate: s.sample})
		sampler.Register(registry, string(id))
		sink = sampler
	}
	// With -gossip the configured neighbors seed a SWIM membership instance;
	// it is handed to the engine before construction so the gossip handler
	// sits in the peer's message chain and hosted documents/services are
	// announced into the shared replica catalog.
	var member *membership.Gossip
	if s.gossip > 0 {
		var seeds []p2p.PeerID
		for _, el := range root.Elements() {
			if el.Name() == "neighbor" {
				seeds = append(seeds, p2p.PeerID(el.AttrDefault("id", "")))
			}
		}
		member = membership.New(transport, membership.Config{
			Seeds:         seeds,
			ProbeInterval: s.gossip,
			AdvertiseAddr: transport.Addr(),
			Sink:          sink,
			Registry:      registry,
		})
		member.OnDown(func(dead p2p.PeerID) {
			log.Printf("gossip: peer %s declared dead", dead)
		})
	}
	opts := core.Options{
		Super:           root.AttrDefault("super", "false") == "true",
		TraceSink:       sink,
		MetricsRegistry: registry,
		SlowTxn:         s.slowTxn,
		SlowTxnLog: func(txn string, d time.Duration, outcome string) {
			log.Printf("slow transaction %s: %s (%s)", txn, d, outcome)
		},
		Membership:        member,
		CallCacheCapacity: s.cache,
		CacheTTL:          s.cacheTTL,
		SLO:               s.slo,
	}
	// ready flips once startup (config, checkpoint load, restart recovery)
	// finished; until then /healthz answers 503 so orchestrators hold
	// traffic during WAL replay.
	var ready atomic.Bool
	var ops http.Server // serves with -http, from setup on
	defer ops.Close()
	var hosted []string
	setup := func(peer *core.Peer) error {
		if s.httpAddr != "" {
			hcfg := obs.HandlerConfig{
				Registry: registry,
				Ring:     ring,
				Sampler:  sampler,
				Pprof:    true,
				Ready: func() error {
					if !ready.Load() {
						return fmt.Errorf("peer %s still starting", id)
					}
					return nil
				},
			}
			if member != nil {
				hcfg.Members = func() any { return member.Info() }
			}
			if plane := peer.Cluster(); plane != nil {
				hcfg.Cluster = func() any { return plane.View() }
				hcfg.ClusterMetrics = func(w io.Writer) error { return plane.WritePrometheus(w) }
			}
			httpLn, err := net.Listen("tcp", s.httpAddr)
			if err != nil {
				return fmt.Errorf("observability HTTP listener: %w", err)
			}
			ops.Handler = obs.NewOpsHandler(hcfg)
			go func() {
				if err := ops.Serve(httpLn); err != nil && err != http.ErrServerClosed {
					log.Printf("observability HTTP server: %v", err)
				}
			}()
			extra := ""
			if member != nil {
				extra = " /members"
			}
			if peer.Cluster() != nil {
				extra += " /cluster /cluster/metrics"
			}
			log.Printf("ops endpoints on http://%s: /metrics /trace/{txn} /traces /healthz%s /debug/pprof/", httpLn.Addr(), extra)
		}
		for _, el := range root.Elements() {
			switch el.Name() {
			case "neighbor":
				transport.AddPeer(p2p.PeerID(el.AttrDefault("id", "")), el.AttrDefault("addr", ""))
			case "document":
				name := el.AttrDefault("name", "")
				var content string
				if file, ok := el.Attr("file"); ok {
					b, err := os.ReadFile(file)
					if err != nil {
						return fmt.Errorf("document %s: %w", name, err)
					}
					content = string(b)
				} else if first := el.Elements(); len(first) == 1 {
					content = xmldom.MarshalString(first[0])
				} else {
					content = strings.TrimSpace(el.TextContent())
				}
				if err := peer.HostDocument(name, content); err != nil {
					return fmt.Errorf("document %s: %w", name, err)
				}
				hosted = append(hosted, name)
				log.Printf("hosting document %s", name)
			case "queryService":
				desc := descriptorOf(el)
				peer.HostQueryService(desc, strings.TrimSpace(el.TextContent()))
				log.Printf("hosting query service %s over %s", desc.Name, desc.TargetDocument)
			case "updateService":
				desc := descriptorOf(el)
				peer.HostUpdateService(desc, strings.TrimSpace(el.TextContent()))
				log.Printf("hosting update service %s over %s", desc.Name, desc.TargetDocument)
			case "replica":
				peer.Replicas().AddService(el.AttrDefault("service", ""), p2p.PeerID(el.AttrDefault("peer", "")))
			}
		}
		return nil
	}
	// Documents checkpointed by the last run override the configured ones,
	// and transactions the log shows in flight are compensated, before the
	// peer serves.
	peer, err := core.Open(s.dir, transport, opts, s.wal, setup)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, peer.Close()) }()
	if s.cache > 0 {
		log.Printf("materialization cache on (%d entries, default window %s)", s.cache, s.cacheTTL)
	}
	if plane := peer.Cluster(); plane != nil && (s.slo.LatencyTarget > 0 || s.slo.Availability > 0) {
		window := s.slo.Window
		if window == 0 {
			window = 5 * time.Minute // the engine's default
		}
		log.Printf("cluster SLO targets: p99<=%s avail>=%.4f (window %s)",
			s.slo.LatencyTarget, s.slo.Availability, window)
	}

	// Sharding runs after checkpoint load and restart recovery so fragments
	// are cut from the committed state. With -gossip the fragment ads spread
	// through the replica catalog, so remote peers can assemble the document
	// from its parts.
	if s.shard {
		for _, name := range hosted {
			if err := peer.ShardHostedDocument(name, s.shardThreshold); err != nil {
				return fmt.Errorf("shard %s: %w", name, err)
			}
			if manifest, ok := peer.Store().Manifest(name); ok {
				log.Printf("sharded document %s into %d fragments + spine", name, len(manifest))
			}
		}
	}

	ready.Store(true)
	log.Printf("peer %s listening on %s (super=%t)", id, transport.Addr(), peer.Super())

	if member != nil {
		// Gossip subsumes the static neighbor pinger: SWIM probing covers
		// every known member (not just configured neighbors), and its death
		// verdicts already feed peer.OnPeerDown through the engine wiring.
		member.Start()
		defer member.Stop()
		log.Printf("gossip membership on (probe every %s, %d seed(s))", s.gossip, len(member.Members())-1)
		if s.placement > 0 {
			stopPlacement := peer.StartPlacement(context.Background(), s.placement)
			defer stopPlacement()
			log.Printf("placement loop on (tick every %s): hot fragments migrate toward their dominant callers", s.placement)
		}
	} else {
		// Keep-alive probing of neighbors: disconnections feed the recovery
		// protocol.
		pinger := p2p.NewPinger(transport, 2*time.Second, 3, func(dead p2p.PeerID) {
			log.Printf("peer %s detected down", dead)
			peer.OnPeerDown(dead)
		})
		for _, el := range root.Elements() {
			if el.Name() == "neighbor" {
				pinger.Watch(p2p.PeerID(el.AttrDefault("id", "")))
			}
		}
		pinger.Start()
		defer pinger.Stop()
	}

	<-ctx.Done()
	log.Printf("peer %s shutting down", id)
	return nil
}

func descriptorOf(el *xmldom.Node) services.Descriptor {
	desc := services.Descriptor{
		Name:           el.AttrDefault("name", ""),
		ResultName:     el.AttrDefault("resultName", ""),
		TargetDocument: el.AttrDefault("doc", ""),
		Doc:            el.AttrDefault("documentation", ""),
	}
	for _, p := range strings.Split(el.AttrDefault("params", ""), ",") {
		if p = strings.TrimSpace(p); p != "" {
			required := strings.HasSuffix(p, "!")
			desc.Params = append(desc.Params, services.ParamDef{
				Name: strings.TrimSuffix(p, "!"), Required: required,
			})
		}
	}
	return desc
}
