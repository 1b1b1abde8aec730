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
	configPath := flag.String("config", "", "peer configuration XML file (required)")
	walDir := flag.String("waldir", "", "durable operation-log directory (default: in-memory): commit, abort and compensate-end records and each served reply wait for the disk, concurrent waits share an fsync (group commit), and segments rotate, checkpoint and compact")
	walSeg := flag.Int64("walseg", 0, "segment rotation threshold in bytes (0: 4 MiB default; needs -waldir)")
	walCheckpoint := flag.Int("walcheckpoint", 0, "checkpoint the log automatically every N appends, compacting covered segments in the background (0 disables; needs -waldir)")
	docsDir := flag.String("docs", "", "document checkpoint directory (loaded at startup, saved at shutdown)")
	httpAddr := flag.String("http", "", `observability HTTP listen address, e.g. 127.0.0.1:9100 or :9100, serving /metrics (Prometheus text format), /trace/{txn} (span tree as JSON), /traces, /healthz and /debug/pprof/ (default: disabled)`)
	sample := flag.Float64("sample", 0, "adaptive trace sampling keep-rate for fast clean commits, 0 < rate < 1 (0 disables sampling: every span is kept; errors/aborts/faults/slow transactions are always kept when sampling)")
	slowTxn := flag.Duration("slowtxn", 0, "log origin transactions slower than this and force-keep their traces, e.g. 250ms (0 disables)")
	gossip := flag.Duration("gossip", 0, "enable SWIM gossip membership with this probe interval, e.g. 1s: the configured neighbors become gossip seeds, the replica catalog is maintained by announcements instead of static <replica> entries alone, failure detection feeds recovery, and /members reports the live view (0 disables; replaces the static neighbor pinger)")
	cache := flag.Int("cache", 0, "semantic materialization-cache capacity in entries: identical service calls within their frequency-derived freshness window are served from cache, with singleflight dedupe of concurrent calls and — with -gossip — cluster-wide dedupe through call advertisements (0 disables)")
	cacheTTL := flag.Duration("cachettl", 0, "freshness window for cacheable calls that declare no frequency attribute, e.g. 30s (0: such calls stay uncached; needs -cache)")
	slo := flag.String("slo", "", `cluster SLO targets for the observability plane as comma-separated key=value pairs, e.g. "p99=50ms,avail=0.999,window=5m" (keys: p99 latency target, avail commit-fraction target, window burn-rate window, family histogram family; needs -gossip, which carries the metric summaries the plane merges)`)
	shardDocs := flag.Bool("shard", false, "split hosted documents into subtree fragments at startup: fragments get stable IDs, are announced into the replica catalog (with -gossip), and are served to remote assemblers over fragment-fetch messages")
	shardThreshold := flag.Int("shardthreshold", 0, "minimum subtree node count for a child of the root to become its own fragment (0: built-in default; needs -shard)")
	placement := flag.Duration("placement", 0, "run the heat-driven placement loop with this tick interval, e.g. 2s: fragments whose access heat is dominated by one remote caller migrate to that caller, with catalog-versioned handoff (0 disables; needs -shard and -gossip)")
	flag.Parse()
	if *configPath == "" {
		fatalUsage("the -config flag is required")
	}
	if *walSeg < 0 {
		fatalUsage(fmt.Sprintf("invalid -walseg %d (want 0 for the default, or a positive byte count)", *walSeg))
	}
	if *walCheckpoint < 0 {
		fatalUsage(fmt.Sprintf("invalid -walcheckpoint %d (want 0 to disable, or a positive append count)", *walCheckpoint))
	}
	if (*walSeg > 0 || *walCheckpoint > 0) && *walDir == "" {
		fatalUsage("-walseg and -walcheckpoint need -waldir to enable the durable log")
	}
	if *httpAddr != "" {
		if _, err := net.ResolveTCPAddr("tcp", *httpAddr); err != nil {
			fatalUsage(fmt.Sprintf("invalid -http address %q: %v (want host:port or :port)", *httpAddr, err))
		}
	}
	if *sample < 0 || *sample >= 1 {
		fatalUsage(fmt.Sprintf("invalid -sample rate %v (want 0 to disable, or 0 < rate < 1)", *sample))
	}
	if *cache < 0 {
		fatalUsage(fmt.Sprintf("invalid -cache capacity %d (want 0 to disable, or a positive entry count)", *cache))
	}
	if *cacheTTL < 0 {
		fatalUsage(fmt.Sprintf("invalid -cachettl %v (want 0 to disable, or a positive duration)", *cacheTTL))
	}
	if *cacheTTL > 0 && *cache == 0 {
		fatalUsage("-cachettl needs -cache to enable the materialization cache")
	}
	sloCfg, err := parseSLO(*slo)
	if err != nil {
		fatalUsage(err.Error())
	}
	if *slo != "" && *gossip == 0 {
		fatalUsage("-slo needs -gossip: the cluster plane rides on gossiped metric summaries")
	}
	if *shardThreshold < 0 {
		fatalUsage(fmt.Sprintf("invalid -shardthreshold %d (want 0 for the default, or a positive node count)", *shardThreshold))
	}
	if *shardThreshold > 0 && !*shardDocs {
		fatalUsage("-shardthreshold needs -shard to enable document sharding")
	}
	if *placement < 0 {
		fatalUsage(fmt.Sprintf("invalid -placement interval %v (want 0 to disable, or a positive duration)", *placement))
	}
	if *placement > 0 && !*shardDocs {
		fatalUsage("-placement needs -shard: only fragment owners run the placement loop")
	}
	if *placement > 0 && *gossip == 0 {
		fatalUsage("-placement needs -gossip: migration handoff rides the gossiped replica catalog")
	}
	scfg := shardConfig{enabled: *shardDocs, threshold: *shardThreshold, placementEvery: *placement}
	wcfg := walConfig{dir: *walDir, segBytes: *walSeg, checkpointEvery: *walCheckpoint}
	ccfg := cacheConfig{capacity: *cache, ttl: *cacheTTL}
	if err := run(*configPath, wcfg, ccfg, scfg, *docsDir, *httpAddr, *sample, *slowTxn, *gossip, sloCfg); err != nil {
		log.Fatalf("axmlpeer: %v", err)
	}
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

// cacheConfig bundles the materialization-cache flags.
type cacheConfig struct {
	capacity int
	ttl      time.Duration
}

// shardConfig bundles the document-sharding flags: split hosted documents
// into fragments at startup and optionally run the heat-driven placement
// loop.
type shardConfig struct {
	enabled        bool
	threshold      int
	placementEvery time.Duration
}

// fatalUsage reports a flag error together with the full usage text, so
// a bad invocation never fails silently.
func fatalUsage(msg string) {
	fmt.Fprintf(os.Stderr, "axmlpeer: %s\n\n", msg)
	flag.Usage()
	os.Exit(2)
}

// walConfig bundles the operation-log flags: the log directory (-waldir)
// and its rotation/checkpoint knobs.
type walConfig struct {
	dir             string
	segBytes        int64
	checkpointEvery int
}

func run(configPath string, wcfg walConfig, ccfg cacheConfig, scfg shardConfig, docsDir string, httpAddr string, sample float64, slowTxn time.Duration, gossipEvery time.Duration, sloCfg obscluster.SLOConfig) error {
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	cfg, err := xmldom.ParseString(configPath, string(raw))
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

	var opLog wal.Log = wal.NewMemory()
	if wcfg.dir != "" {
		segLog, err := wal.OpenDir(wcfg.dir, wal.SegmentOptions{
			MaxSegmentBytes: wcfg.segBytes,
			CheckpointEvery: wcfg.checkpointEvery,
		})
		if err != nil {
			return err
		}
		defer segLog.Close()
		opLog = segLog
	}
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
	if sample > 0 {
		sampler = obs.NewSampler(ring, obs.SamplerConfig{KeepRate: sample})
		sampler.Register(registry, string(id))
		sink = sampler
	}
	// With -gossip the configured neighbors seed a SWIM membership instance;
	// it is handed to the engine before construction so the gossip handler
	// sits in the peer's message chain and hosted documents/services are
	// announced into the shared replica catalog.
	var member *membership.Gossip
	if gossipEvery > 0 {
		var seeds []p2p.PeerID
		for _, el := range root.Elements() {
			if el.Name() == "neighbor" {
				seeds = append(seeds, p2p.PeerID(el.AttrDefault("id", "")))
			}
		}
		member = membership.New(transport, membership.Config{
			Seeds:         seeds,
			ProbeInterval: gossipEvery,
			AdvertiseAddr: transport.Addr(),
			Sink:          sink,
			Registry:      registry,
		})
		member.OnDown(func(dead p2p.PeerID) {
			log.Printf("gossip: peer %s declared dead", dead)
		})
	}
	peer := core.NewPeer(transport, opLog, core.Options{
		Super:           root.AttrDefault("super", "false") == "true",
		TraceSink:       sink,
		MetricsRegistry: registry,
		SlowTxn:         slowTxn,
		SlowTxnLog: func(txn string, d time.Duration, outcome string) {
			log.Printf("slow transaction %s: %s (%s)", txn, d, outcome)
		},
		Membership:        member,
		CallCacheCapacity: ccfg.capacity,
		CacheTTL:          ccfg.ttl,
		SLO:               sloCfg,
	})
	if ccfg.capacity > 0 {
		log.Printf("materialization cache on (%d entries, default window %s)", ccfg.capacity, ccfg.ttl)
	}
	if plane := peer.Cluster(); plane != nil && (sloCfg.LatencyTarget > 0 || sloCfg.Availability > 0) {
		window := sloCfg.Window
		if window == 0 {
			window = 5 * time.Minute // the engine's default
		}
		log.Printf("cluster SLO targets: p99<=%s avail>=%.4f (window %s)",
			sloCfg.LatencyTarget, sloCfg.Availability, window)
	}
	// ready flips once startup (config, checkpoint load, restart recovery)
	// finished; until then /healthz answers 503 so orchestrators hold
	// traffic during WAL replay.
	var ready atomic.Bool
	if httpAddr != "" {
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
		handler := obs.NewOpsHandler(hcfg)
		srv := &http.Server{Addr: httpAddr, Handler: handler}
		httpLn, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return fmt.Errorf("observability HTTP listener: %w", err)
		}
		defer srv.Close()
		go func() {
			if err := srv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
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

	var hosted []string
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

	// Documents checkpointed by a previous run override the config's
	// initial content (they carry the committed state, with node IDs).
	if docsDir != "" {
		if _, err := os.Stat(docsDir); err == nil {
			loaded, err := peer.Store().LoadAll(docsDir)
			if err != nil {
				return fmt.Errorf("load checkpoint: %w", err)
			}
			for _, name := range loaded {
				log.Printf("restored document %s from checkpoint", name)
			}
		}
	}

	// Restart-time recovery: compensate transactions the log shows as in
	// flight at crash time.
	if wcfg.dir != "" {
		recovered, err := peer.RecoverPending()
		if err != nil {
			return fmt.Errorf("restart recovery: %w", err)
		}
		for _, txn := range recovered {
			log.Printf("restart recovery: compensated in-flight transaction %s", txn)
		}
	}

	// Sharding runs after checkpoint load and restart recovery so fragments
	// are cut from the committed state. With -gossip the fragment ads spread
	// through the replica catalog, so remote peers can assemble the document
	// from its parts.
	if scfg.enabled {
		for _, name := range hosted {
			if err := peer.ShardHostedDocument(name, scfg.threshold); err != nil {
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
		log.Printf("gossip membership on (probe every %s, %d seed(s))", gossipEvery, len(member.Members())-1)
		if scfg.placementEvery > 0 {
			stopPlacement := peer.StartPlacement(context.Background(), scfg.placementEvery)
			defer stopPlacement()
			log.Printf("placement loop on (tick every %s): hot fragments migrate toward their dominant callers", scfg.placementEvery)
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

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if docsDir != "" {
		if err := peer.Store().SaveAll(docsDir); err != nil {
			log.Printf("checkpoint failed: %v", err)
		} else {
			log.Printf("documents checkpointed to %s", docsDir)
		}
	}
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
