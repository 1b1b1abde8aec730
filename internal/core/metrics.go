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
	// CommitErrors counts participant commits whose decision record could
	// not be made durable.
	CommitErrors atomic.Int64

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

	// Document-sharding events. FragFetches counts remote fragment fetches
	// made during assembly; FragMigrations counts completed heat-driven
	// handoffs out of this peer; FragPromotions counts shadow copies
	// re-promoted after a migration destination died (compensation).
	FragFetches    atomic.Int64
	FragMigrations atomic.Int64
	FragPromotions atomic.Int64
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
	for _, c := range []struct {
		name string
		v    *atomic.Int64
	}{
		{"axml_txns_begun", &m.TxnsBegun},
		{"axml_txns_committed", &m.TxnsCommitted},
		{"axml_txns_aborted", &m.TxnsAborted},
		{"axml_invocations_served", &m.InvocationsServed},
		{"axml_invocations_made", &m.InvocationsMade},
		{"axml_compensations", &m.Compensations},
		{"axml_nodes_undone", &m.NodesUndone},
		{"axml_forward_recoveries", &m.ForwardRecoveries},
		{"axml_backward_recoveries", &m.BackwardRecoveries},
		{"axml_retries_attempted", &m.RetriesAttempted},
		{"axml_aborts_sent", &m.AbortsSent},
		{"axml_aborts_received", &m.AbortsReceived},
		{"axml_disconnects_detected", &m.DisconnectsDetected},
		{"axml_redirects", &m.Redirects},
		{"axml_work_reused", &m.WorkReused},
		{"axml_nodes_lost", &m.NodesLost},
		{"axml_comp_services_built", &m.CompServicesBuilt},
		{"axml_comp_services_run", &m.CompServicesRun},
		{"axml_comp_defs_rejected", &m.CompDefsRejected},
		{"axml_abort_errors", &m.AbortErrors},
		{"axml_commit_errors", &m.CommitErrors},
		{"axml_cache_hits", &m.CacheHits},
		{"axml_cache_misses", &m.CacheMisses},
		{"axml_cache_waits", &m.CacheWaits},
		{"axml_cache_fetches", &m.CacheFetches},
		{"axml_cache_invalidations", &m.CacheInvalidations},
		{"axml_frag_fetches", &m.FragFetches},
		{"axml_frag_migrations", &m.FragMigrations},
		{"axml_frag_promotions", &m.FragPromotions},
	} {
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
	CommitErrors                               int64
	CacheHits, CacheMisses, CacheWaits         int64
	CacheFetches, CacheInvalidations           int64
	FragFetches, FragMigrations                int64
	FragPromotions                             int64
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		TxnsBegun:           m.TxnsBegun.Load(),
		TxnsCommitted:       m.TxnsCommitted.Load(),
		TxnsAborted:         m.TxnsAborted.Load(),
		InvocationsServed:   m.InvocationsServed.Load(),
		InvocationsMade:     m.InvocationsMade.Load(),
		Compensations:       m.Compensations.Load(),
		NodesUndone:         m.NodesUndone.Load(),
		ForwardRecoveries:   m.ForwardRecoveries.Load(),
		BackwardRecoveries:  m.BackwardRecoveries.Load(),
		RetriesAttempted:    m.RetriesAttempted.Load(),
		AbortsSent:          m.AbortsSent.Load(),
		AbortsReceived:      m.AbortsReceived.Load(),
		DisconnectsDetected: m.DisconnectsDetected.Load(),
		Redirects:           m.Redirects.Load(),
		WorkReused:          m.WorkReused.Load(),
		NodesLost:           m.NodesLost.Load(),
		CompServicesBuilt:   m.CompServicesBuilt.Load(),
		CompServicesRun:     m.CompServicesRun.Load(),
		CompDefsRejected:    m.CompDefsRejected.Load(),
		AbortErrors:         m.AbortErrors.Load(),
		CommitErrors:        m.CommitErrors.Load(),
		CacheHits:           m.CacheHits.Load(),
		CacheMisses:         m.CacheMisses.Load(),
		CacheWaits:          m.CacheWaits.Load(),
		CacheFetches:        m.CacheFetches.Load(),
		CacheInvalidations:  m.CacheInvalidations.Load(),
		FragFetches:         m.FragFetches.Load(),
		FragMigrations:      m.FragMigrations.Load(),
		FragPromotions:      m.FragPromotions.Load(),
	}
}

// Add accumulates another snapshot into s (for cluster-wide totals).
func (s *MetricsSnapshot) Add(o MetricsSnapshot) {
	s.TxnsBegun += o.TxnsBegun
	s.TxnsCommitted += o.TxnsCommitted
	s.TxnsAborted += o.TxnsAborted
	s.InvocationsServed += o.InvocationsServed
	s.InvocationsMade += o.InvocationsMade
	s.Compensations += o.Compensations
	s.NodesUndone += o.NodesUndone
	s.ForwardRecoveries += o.ForwardRecoveries
	s.BackwardRecoveries += o.BackwardRecoveries
	s.RetriesAttempted += o.RetriesAttempted
	s.AbortsSent += o.AbortsSent
	s.AbortsReceived += o.AbortsReceived
	s.DisconnectsDetected += o.DisconnectsDetected
	s.Redirects += o.Redirects
	s.WorkReused += o.WorkReused
	s.NodesLost += o.NodesLost
	s.CompServicesBuilt += o.CompServicesBuilt
	s.CompServicesRun += o.CompServicesRun
	s.CompDefsRejected += o.CompDefsRejected
	s.AbortErrors += o.AbortErrors
	s.CommitErrors += o.CommitErrors
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheWaits += o.CacheWaits
	s.CacheFetches += o.CacheFetches
	s.CacheInvalidations += o.CacheInvalidations
	s.FragFetches += o.FragFetches
	s.FragMigrations += o.FragMigrations
	s.FragPromotions += o.FragPromotions
}
