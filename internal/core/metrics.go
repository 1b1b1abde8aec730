package core

import (
	"sync/atomic"

	"axmltx/internal/obs"
)

// Metrics counts protocol events at one peer. All counters are safe for
// concurrent update; Snapshot returns a consistent-enough copy for
// experiment reporting (individual counters are atomic; cross-counter skew
// is irrelevant for aggregated runs).
type Metrics struct {
	// TxnsBegun / TxnsCommitted / TxnsAborted count transaction outcomes
	// at their origin peer.
	TxnsBegun     atomic.Int64
	TxnsCommitted atomic.Int64
	TxnsAborted   atomic.Int64

	// InvocationsServed counts services executed at this peer.
	InvocationsServed atomic.Int64
	// InvocationsMade counts remote invocations issued by this peer.
	InvocationsMade atomic.Int64

	// Compensations counts local compensation runs; NodesUndone the total
	// XML nodes they touched (the paper's cost measure).
	Compensations atomic.Int64
	NodesUndone   atomic.Int64

	// ForwardRecoveries counts faults absorbed by fault handlers (retry or
	// application hooks); BackwardRecoveries counts faults propagated to
	// the parent.
	ForwardRecoveries  atomic.Int64
	BackwardRecoveries atomic.Int64
	// RetriesAttempted counts individual retry invocations.
	RetriesAttempted atomic.Int64

	// AbortsSent / AbortsReceived count "Abort TA" messages.
	AbortsSent     atomic.Int64
	AbortsReceived atomic.Int64

	// DisconnectsDetected counts peer-death observations (failed sends,
	// ping timeouts, stream silences); Redirects counts results re-routed
	// past a dead parent (§3.3 case b); WorkReused counts materialized
	// results salvaged into a forward recovery.
	DisconnectsDetected atomic.Int64
	Redirects           atomic.Int64
	WorkReused          atomic.Int64
	// NodesLost totals the subtree sizes of work discarded because of
	// disconnection — the "loss of effort" §3.3 minimizes.
	NodesLost atomic.Int64

	// CompServicesBuilt counts compensating-service definitions constructed
	// for peer-independent recovery; CompServicesRun counts executions of
	// shipped definitions.
	CompServicesBuilt atomic.Int64
	CompServicesRun   atomic.Int64
	// CompDefsRejected counts shipped definitions that did not decode; the
	// participant is then out of reach of peer-independent recovery.
	CompDefsRejected atomic.Int64
	// AbortErrors counts aborts whose decision record (or its sync) or
	// compensation failed, and fragment-shadow promotions whose
	// compensation records failed to append.
	AbortErrors atomic.Int64
	// CommitErrors counts commits, at the origin and at participants, whose
	// decision record could not be made durable.
	CommitErrors atomic.Int64
	// DecisionSendErrors counts commit and abort messages the transport
	// refused: a participant that never hears the decision.
	DecisionSendErrors atomic.Int64
	// CheckpointErrors counts failed background checkpoints and
	// compactions of the durable log.
	CheckpointErrors atomic.Int64

	// Materialization call-cache events. CacheHits counts results served
	// from the local cache within their freshness window; CacheMisses
	// counts materializations that went upstream; CacheWaits counts
	// followers served by a concurrent in-flight invocation (singleflight);
	// CacheFetches counts results fetched from an advertising peer instead
	// of re-invoking upstream; CacheInvalidations counts entries dropped by
	// writes or compensation touching their documents.
	CacheHits          atomic.Int64
	CacheMisses        atomic.Int64
	CacheWaits         atomic.Int64
	CacheFetches       atomic.Int64
	CacheInvalidations atomic.Int64

	// Document-sharding events. FragFetches counts answered fragment-fetch
	// requests this peer sent — one per holder per round, so a remote
	// assembly from a single holder costs 2 (spine, then its fragments), not
	// one per fragment; FragMigrations counts completed heat-driven
	// handoffs out of this peer; FragPromotions counts shadow copies
	// re-promoted after a migration destination died (compensation).
	FragFetches    atomic.Int64
	FragMigrations atomic.Int64
	FragPromotions atomic.Int64
}

// counter is one protocol counter: its metric name, its atomic, and the
// MetricsSnapshot field that copies it.
type counter struct {
	name string
	v    *atomic.Int64
	s    *int64
}

// counters lists every counter of m, each paired with its field in s.
func (m *Metrics) counters(s *MetricsSnapshot) []counter {
	return []counter{
		{"axml_txns_begun", &m.TxnsBegun, &s.TxnsBegun},
		{"axml_txns_committed", &m.TxnsCommitted, &s.TxnsCommitted},
		{"axml_txns_aborted", &m.TxnsAborted, &s.TxnsAborted},
		{"axml_invocations_served", &m.InvocationsServed, &s.InvocationsServed},
		{"axml_invocations_made", &m.InvocationsMade, &s.InvocationsMade},
		{"axml_compensations", &m.Compensations, &s.Compensations},
		{"axml_nodes_undone", &m.NodesUndone, &s.NodesUndone},
		{"axml_forward_recoveries", &m.ForwardRecoveries, &s.ForwardRecoveries},
		{"axml_backward_recoveries", &m.BackwardRecoveries, &s.BackwardRecoveries},
		{"axml_retries_attempted", &m.RetriesAttempted, &s.RetriesAttempted},
		{"axml_aborts_sent", &m.AbortsSent, &s.AbortsSent},
		{"axml_aborts_received", &m.AbortsReceived, &s.AbortsReceived},
		{"axml_disconnects_detected", &m.DisconnectsDetected, &s.DisconnectsDetected},
		{"axml_redirects", &m.Redirects, &s.Redirects},
		{"axml_work_reused", &m.WorkReused, &s.WorkReused},
		{"axml_nodes_lost", &m.NodesLost, &s.NodesLost},
		{"axml_comp_services_built", &m.CompServicesBuilt, &s.CompServicesBuilt},
		{"axml_comp_services_run", &m.CompServicesRun, &s.CompServicesRun},
		{"axml_comp_defs_rejected", &m.CompDefsRejected, &s.CompDefsRejected},
		{"axml_abort_errors", &m.AbortErrors, &s.AbortErrors},
		{"axml_commit_errors", &m.CommitErrors, &s.CommitErrors},
		{"axml_decision_send_errors", &m.DecisionSendErrors, &s.DecisionSendErrors},
		{"axml_wal_checkpoint_errors", &m.CheckpointErrors, &s.CheckpointErrors},
		{"axml_cache_hits", &m.CacheHits, &s.CacheHits},
		{"axml_cache_misses", &m.CacheMisses, &s.CacheMisses},
		{"axml_cache_waits", &m.CacheWaits, &s.CacheWaits},
		{"axml_cache_fetches", &m.CacheFetches, &s.CacheFetches},
		{"axml_cache_invalidations", &m.CacheInvalidations, &s.CacheInvalidations},
		{"axml_frag_fetches", &m.FragFetches, &s.FragFetches},
		{"axml_frag_migrations", &m.FragMigrations, &s.FragMigrations},
		{"axml_frag_promotions", &m.FragPromotions, &s.FragPromotions},
	}
}

// Register exports every counter into an obs.Registry as a function-backed
// gauge labeled with the peer ID. The atomics stay the single source of
// truth; the registry reads them at scrape time, so peers, benchmarks and
// simulations all emit the same metric schema.
func (m *Metrics) Register(reg *obs.Registry, peer string) {
	if reg == nil {
		return
	}
	labels := obs.Labels{"peer": peer}
	for _, c := range m.counters(new(MetricsSnapshot)) {
		reg.Gauge(c.name, labels, c.v.Load)
	}
}

// MetricsSnapshot is a plain-values copy of Metrics.
type MetricsSnapshot struct {
	TxnsBegun, TxnsCommitted, TxnsAborted      int64
	InvocationsServed, InvocationsMade         int64
	Compensations, NodesUndone                 int64
	ForwardRecoveries, BackwardRecoveries      int64
	RetriesAttempted                           int64
	AbortsSent, AbortsReceived                 int64
	DisconnectsDetected, Redirects, WorkReused int64
	NodesLost                                  int64
	CompServicesBuilt, CompServicesRun         int64
	CompDefsRejected, AbortErrors              int64
	CommitErrors, CheckpointErrors             int64
	DecisionSendErrors                         int64
	CacheHits, CacheMisses, CacheWaits         int64
	CacheFetches, CacheInvalidations           int64
	FragFetches, FragMigrations                int64
	FragPromotions                             int64
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	for _, c := range m.counters(&s) {
		*c.s = c.v.Load()
	}
	return s
}

// Add accumulates another snapshot into s (for cluster-wide totals).
func (s *MetricsSnapshot) Add(o MetricsSnapshot) {
	var m Metrics
	theirs := m.counters(&o)
	for i, c := range m.counters(s) {
		*c.s += *theirs[i].s
	}
}
