package core

import "axmltx/internal/p2p"

// InvokeRequest is the payload of a KindInvoke message.
type InvokeRequest struct {
	// Txn is the global transaction ID.
	Txn string
	// Origin is the transaction's origin peer.
	Origin p2p.PeerID
	// Caller is the invoking peer (the parent in the invocation tree).
	Caller p2p.PeerID
	// Service names the service to execute.
	Service string
	// Params are the resolved parameters.
	Params map[string]string
	// Chain is the active peer list so far, already extended with the
	// callee (§3.3: "AP3 passes the list of active peers also while
	// invoking the service S6 of AP6"). Nil when chaining is disabled —
	// the "traditional" baseline.
	Chain *Chain
	// Async asks the callee to acknowledge immediately and push the result
	// later as a KindResult message (data-intensive/continuous flows).
	Async bool
	// Reused carries result fragments salvaged from a disconnected
	// participant's children, keyed by the service that produced them; the
	// callee uses them instead of re-invoking those services (§3.3 case b
	// work reuse).
	Reused map[string][]string
}

// InvokeResponse is the payload of a successful invocation reply (or of a
// KindResult push for async invocations).
type InvokeResponse struct {
	// Service echoes the executed service (needed on async pushes).
	Service string
	// Fragments are the service's result XML fragments.
	Fragments []string
	// Chain is the callee's updated active peer list, including every
	// sub-invocation it made; the caller adopts it.
	Chain *Chain
	// Comp is the encoded CompensationDef (Encode) for the callee's effects;
	// nil unless the system runs peer-independent recovery.
	Comp []byte
	// Nodes is the number of XML nodes the invocation touched at the
	// callee (and below), the paper's cost measure; disconnection
	// accounting uses it to value lost work.
	Nodes int
}

// ChainUpdate is the payload of KindChainUpdate: a participant extended the
// invocation tree and shares the updated active peer list with its
// ancestors, so that any of them can run the disconnection protocol with
// full knowledge of the tree (§3.3 scenario c requires AP2 to know about
// AP6).
type ChainUpdate struct {
	Txn   string
	Chain *Chain
}

// DisconnectNotice is the payload of KindDisconnect: peer Dead was observed
// disconnected during Txn. Detected tells the receiver who noticed.
type DisconnectNotice struct {
	Txn      string
	Dead     p2p.PeerID
	Detected p2p.PeerID
}

// RedirectResult is the payload of KindRedirect: the sender finished
// Service for Txn but its parent Dead is unreachable, so the results are
// handed to an ancestor instead (§3.3 case b).
type RedirectResult struct {
	Txn      string
	Dead     p2p.PeerID
	Service  string
	Response InvokeResponse
}

// StreamBatch is the payload of KindStream: batch Seq of a continuous
// service, sent directly between siblings (§3.3 case d).
type StreamBatch struct {
	Txn       string
	Service   string
	Seq       int
	Fragments []string
}

// CacheFetchRequest is the payload of KindCacheFetch: the sender found a
// gossip advertisement for Key and asks the advertising peer for its cached
// materialization result instead of re-invoking upstream.
type CacheFetchRequest struct {
	// Key is the semantic cache key (service, canonicalized params,
	// freshness window).
	Key string
	// Service names the advertised service (for tracing and metrics).
	Service string
}

// CacheFetchResponse answers a CacheFetchRequest. Found is false when the
// entry expired or was invalidated since it was advertised; the requester
// then falls back to its own upstream invocation.
type CacheFetchResponse struct {
	Key     string
	Service string
	Found   bool
	// Fragments is the cached result.
	Fragments []string
	// FetchedUnixNano is when the owner performed the upstream invocation;
	// the requester re-checks freshness against its own clock.
	FetchedUnixNano int64
	// WindowNanos is the freshness window the entry was cached under.
	WindowNanos int64
}

// FragFetchRequest is the payload of KindFragFetch: the sender is
// assembling a sharded document and asks one catalog-advertised holder for
// every piece it wants from that holder, in one round trip.
type FragFetchRequest struct {
	// IDs are fragment IDs ("<doc>#<root node ID>", internal/axml) or the
	// "<doc>#spine" pseudo-ID naming a document spine.
	IDs []string
}

// FragFetchResponse answers a FragFetchRequest with one piece per requested
// ID, in request order.
type FragFetchResponse struct {
	Pieces []FragPiece
}

// FragPiece is a holder's answer for one requested ID.
type FragPiece struct {
	ID string
	// Found is false when the holder no longer has the piece (it migrated
	// away since the advertisement); the requester then tries the next
	// advertised holder.
	Found bool
	// Deferred marks a piece the holder did not send because the reply
	// reached its byte budget; the requester asks the same holder again.
	Deferred bool
	// Fragment fields, mirroring axml.Fragment; for a spine only Doc, XML
	// and Manifest are set.
	Doc     string
	Root    uint64
	Parent  uint64
	Pos     int
	XML     string
	Nodes   int
	Version uint64
	// Manifest lists the document's complete fragment ID set (spines
	// only): the assembling peer must gather exactly these fragments, no
	// matter how migration has scattered the advertisements.
	Manifest []string
}

// FragMigrateRequest is the payload of KindFragMigrate: the sender hands a
// fragment off to the receiver (its dominant caller). The shipped Version
// is already bumped past every advertised copy, so the receiver's
// announcement outranks the sender's until the sender withdraws.
type FragMigrateRequest struct {
	ID      string
	Doc     string
	Root    uint64
	Parent  uint64
	Pos     int
	XML     string
	Nodes   int
	Version uint64
}

// FragMigrateResponse acknowledges a FragMigrateRequest. OK is false when
// the receiver refused the fragment (e.g. shutting down); the sender then
// keeps ownership and compensates the handoff.
type FragMigrateResponse struct {
	ID string
	OK bool
}
