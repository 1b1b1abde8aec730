package membership

import (
	"sort"
	"time"

	"axmltx/internal/p2p"
)

// Gossip message subjects carried on p2p.KindGossip.
const (
	// subjectSync is a push-pull anti-entropy exchange: the request carries
	// the sender's full member list + catalog, the response the receiver's.
	subjectSync = "sync"
	// subjectPingReq asks a helper to probe a third peer (SWIM indirect
	// probe); subjectPingAck answers it, with Err set on failure.
	subjectPingReq = "ping-req"
	subjectPingAck = "ping-ack"
)

// CatalogEntry is one origin peer's advertisement of what it hosts. The
// origin is the entry's single writer: it bumps Version on every change,
// and reconciliation keeps, per origin, the highest version seen — no
// vector clocks needed.
type CatalogEntry struct {
	Origin   p2p.PeerID `json:"origin"`
	Version  uint64     `json:"version"`
	Docs     []string   `json:"docs,omitempty"`
	Services []string   `json:"services,omitempty"`
	// Announced is the origin's wall-clock time of the last change; the
	// convergence histogram measures receipt time minus Announced.
	Announced time.Time `json:"announced"`
	// Calls are the origin's materialization-cache advertisements: cached
	// (or in-flight) service-call results other peers may fetch instead of
	// re-invoking upstream (KindCacheFetch in core).
	Calls []CallAd `json:"calls,omitempty"`
	// Frags are the origin's document-fragment holdings: subtree fragments
	// of sharded documents (internal/axml) other peers fetch over
	// KindFragFetch during assembly. Migration moves a fragment between
	// origins by announcing at the destination and withdrawing at the
	// source, each under its own per-origin version bump.
	Frags []FragAd `json:"frags,omitempty"`
}

// FragAd advertises one document fragment held by the origin of its
// CatalogEntry.
type FragAd struct {
	// ID is the fragment ID ("<doc>#<root node ID>", internal/axml).
	ID string `json:"id"`
	// Doc names the sharded document the fragment belongs to, so an
	// assembler can enumerate a document's fragments from the catalog.
	Doc string `json:"doc"`
	// Nodes is the fragment's subtree size, for placement weighing.
	Nodes int `json:"nodes,omitempty"`
	// Version is the fragment content/handoff version. A migration ships
	// Version+1 to the destination; readers racing the handoff prefer the
	// highest advertised version, so they never prefer the source's stale
	// copy once the destination's ad has spread.
	Version uint64 `json:"fragver,omitempty"`
	// Spine marks the origin as holding the document's spine (the sharded
	// document minus its fragments); assembly starts at a spine holder.
	Spine bool `json:"spine,omitempty"`
}

// CallAd advertises one materialization-cache entry (or in-flight upstream
// invocation) held by the origin of its CatalogEntry. Keys are the semantic
// cache keys core derives from (service, canonicalized params, freshness
// window); peers holding a gossip-learned ad fetch the cached result from
// its owner rather than invoking the upstream service again.
type CallAd struct {
	// Key is the semantic cache key.
	Key string `json:"key"`
	// Service names the advertised service (diagnostics only; the key is
	// authoritative).
	Service string `json:"service"`
	// Inflight marks an upstream invocation still in progress: the owner is
	// the cluster-wide dedupe leader for Key and a fetch will block briefly
	// until the result lands.
	Inflight bool `json:"inflight,omitempty"`
	// FetchedUnixNano is when the owner's upstream invocation completed
	// (zero while Inflight).
	FetchedUnixNano int64 `json:"fetched,omitempty"`
	// WindowNanos is the freshness window the result was cached under.
	WindowNanos int64 `json:"window,omitempty"`
}

// fresh reports whether a completed ad is still within its freshness window
// at time now.
func (a CallAd) fresh(now time.Time) bool {
	if a.Inflight || a.FetchedUnixNano == 0 || a.WindowNanos <= 0 {
		return false
	}
	return now.Sub(time.Unix(0, a.FetchedUnixNano)) <= time.Duration(a.WindowNanos)
}

// memberRecord is the wire form of one membership row.
type memberRecord struct {
	ID          p2p.PeerID
	State       int
	Incarnation uint64
	Addr        string
}

// PeerSummary is one origin's metric-summary advertisement, piggybacked on
// sync exchanges for the cluster observability plane (internal/obs/cluster).
// Membership treats Payload as opaque bytes — it versions, relays and
// expires summaries without depending on their encoding. Like catalog
// entries, the origin is the single writer: it bumps Version on every
// refresh and reconciliation keeps the highest version per origin.
type PeerSummary struct {
	Origin        p2p.PeerID `json:"origin"`
	Version       uint64     `json:"version"`
	TakenUnixNano int64      `json:"taken_unix_nano"`
	Payload       []byte     `json:"-"`
}

// storedSummary pairs a received summary with the local receipt time that
// drives SummaryTTL expiry (origin clocks are not trusted for expiry).
type storedSummary struct {
	PeerSummary
	received time.Time
}

// syncMsg is the full push-pull payload (request and response alike).
type syncMsg struct {
	From      p2p.PeerID
	Members   []memberRecord
	Catalog   []CatalogEntry
	Summaries []PeerSummary
}

// pingReq asks the receiver to probe Target on the sender's behalf.
type pingReq struct {
	Target p2p.PeerID
}

// AnnounceDocument advertises that this peer hosts a replica of doc. The
// local table (when bound) learns it immediately; remote peers learn it on
// the next sync exchange.
func (g *Gossip) AnnounceDocument(doc string) {
	g.mu.Lock()
	if !g.selfDocs[doc] {
		g.selfDocs[doc] = true
		g.selfVersion++
		g.selfAnnounced = g.now()
	}
	tbl := g.table
	g.mu.Unlock()
	if tbl != nil {
		tbl.AddDocument(doc, g.self)
	}
}

// AnnounceService advertises that this peer provides svc.
func (g *Gossip) AnnounceService(svc string) {
	g.mu.Lock()
	if !g.selfSvcs[svc] {
		g.selfSvcs[svc] = true
		g.selfVersion++
		g.selfAnnounced = g.now()
	}
	tbl := g.table
	g.mu.Unlock()
	if tbl != nil {
		tbl.AddService(svc, g.self)
	}
}

// WithdrawDocument stops advertising a document replica; remote tables
// prune it via the version bump on the next exchange.
func (g *Gossip) WithdrawDocument(doc string) {
	g.mu.Lock()
	if g.selfDocs[doc] {
		delete(g.selfDocs, doc)
		g.selfVersion++
		g.selfAnnounced = g.now()
	}
	tbl := g.table
	g.mu.Unlock()
	if tbl != nil {
		tbl.RemoveDocument(doc, g.self)
	}
}

// WithdrawService stops advertising a service.
func (g *Gossip) WithdrawService(svc string) {
	g.mu.Lock()
	if g.selfSvcs[svc] {
		delete(g.selfSvcs, svc)
		g.selfVersion++
		g.selfAnnounced = g.now()
	}
	tbl := g.table
	g.mu.Unlock()
	if tbl != nil {
		tbl.RemoveService(svc, g.self)
	}
}

// AnnounceCall advertises a completed materialization-cache entry: this
// peer holds the result for Key, fetched at the given time and fresh for
// window. Remote peers learn it on the next sync exchange and may fetch it
// via KindCacheFetch instead of re-invoking upstream.
func (g *Gossip) AnnounceCall(key, service string, fetched time.Time, window time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.selfCalls[key] = CallAd{
		Key: key, Service: service,
		FetchedUnixNano: fetched.UnixNano(), WindowNanos: int64(window),
	}
	g.selfVersion++
	g.selfAnnounced = g.now()
}

// AnnounceCallInflight advertises that this peer is the dedupe leader for an
// upstream invocation currently in progress: peers about to invoke the same
// key can wait on a fetch from here instead of duplicating the call.
func (g *Gossip) AnnounceCallInflight(key, service string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ad, ok := g.selfCalls[key]; ok && !ad.Inflight {
		// A completed result is already advertised; don't regress it to
		// in-flight (the refresh will overwrite it on completion).
		return
	}
	g.selfCalls[key] = CallAd{Key: key, Service: service, Inflight: true}
	g.selfVersion++
	g.selfAnnounced = g.now()
}

// WithdrawCall stops advertising a cache entry (evicted, invalidated by a
// write or compensation, or the in-flight invocation failed).
func (g *Gossip) WithdrawCall(key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.selfCalls[key]; !ok {
		return
	}
	delete(g.selfCalls, key)
	g.selfVersion++
	g.selfAnnounced = g.now()
}

// AnnounceFragment advertises that this peer holds a document fragment
// (replacing any previous ad for the same ID). The local table learns it
// immediately; remote peers learn it on the next sync exchange.
func (g *Gossip) AnnounceFragment(ad FragAd) {
	g.mu.Lock()
	g.selfFrags[ad.ID] = ad
	g.selfVersion++
	g.selfAnnounced = g.now()
	tbl := g.table
	g.mu.Unlock()
	if tbl != nil {
		tbl.AddFragment(ad.ID, g.self)
	}
}

// WithdrawFragment stops advertising a fragment (it migrated away).
func (g *Gossip) WithdrawFragment(id string) {
	g.mu.Lock()
	if _, ok := g.selfFrags[id]; !ok {
		g.mu.Unlock()
		return
	}
	delete(g.selfFrags, id)
	g.selfVersion++
	g.selfAnnounced = g.now()
	tbl := g.table
	g.mu.Unlock()
	if tbl != nil {
		tbl.RemoveFragment(id, g.self)
	}
}

// FragmentOwners returns the live peers (self excluded) advertising the
// named fragment, highest advertised version first so a reader racing a
// migration prefers the handoff destination; ties break by peer ID.
func (g *Gossip) FragmentOwners(id string) []p2p.PeerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	type cand struct {
		id  p2p.PeerID
		ver uint64
	}
	var out []cand
	for origin, e := range g.catalog {
		if m := g.members[origin]; m != nil && m.state != StateAlive {
			continue
		}
		for _, ad := range e.Frags {
			if ad.ID == id {
				out = append(out, cand{origin, ad.Version})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ver != out[j].ver {
			return out[i].ver > out[j].ver
		}
		return out[i].id < out[j].id
	})
	ids := make([]p2p.PeerID, len(out))
	for i, c := range out {
		ids[i] = c.id
	}
	return ids
}

// DocumentFragments returns every fragment ad known for the named sharded
// document — the union over all origins (self included), deduplicated by
// fragment ID keeping the highest version — plus the set of live spine
// holders. This is the assembler's view of what a complete document needs.
func (g *Gossip) DocumentFragments(doc string) (frags []FragAd, spineHolders []p2p.PeerID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	best := make(map[string]FragAd)
	note := func(origin p2p.PeerID, ad FragAd, live bool) {
		if ad.Doc != doc {
			return
		}
		if ad.Spine {
			if live {
				spineHolders = append(spineHolders, origin)
			}
			return
		}
		if old, ok := best[ad.ID]; !ok || ad.Version > old.Version {
			best[ad.ID] = ad
		}
	}
	for _, ad := range g.selfFrags {
		note(g.self, ad, true)
	}
	for origin, e := range g.catalog {
		live := true
		if m := g.members[origin]; m != nil && m.state != StateAlive {
			live = false
		}
		for _, ad := range e.Frags {
			note(origin, ad, live)
		}
	}
	for _, ad := range best {
		frags = append(frags, ad)
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].ID < frags[j].ID })
	sort.Slice(spineHolders, func(i, j int) bool { return spineHolders[i] < spineHolders[j] })
	return frags, spineHolders
}

// CallOwners returns the peers currently advertising a cache entry for key,
// best candidate first: live origins with a completed, still-fresh result
// (freshest first), then live origins with the invocation in flight. The
// local peer and Suspect/Dead origins are excluded — a fetch from a
// suspected peer would just burn the caller's timeout.
func (g *Gossip) CallOwners(key string) []p2p.PeerID {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	type cand struct {
		id      p2p.PeerID
		fetched int64
	}
	var done, inflight []cand
	for origin, e := range g.catalog {
		if m := g.members[origin]; m != nil && m.state != StateAlive {
			continue
		}
		for _, ad := range e.Calls {
			if ad.Key != key {
				continue
			}
			if ad.Inflight {
				inflight = append(inflight, cand{origin, 0})
			} else if ad.fresh(now) {
				done = append(done, cand{origin, ad.FetchedUnixNano})
			}
		}
	}
	sort.Slice(done, func(i, j int) bool {
		if done[i].fetched != done[j].fetched {
			return done[i].fetched > done[j].fetched
		}
		return done[i].id < done[j].id
	})
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].id < inflight[j].id })
	out := make([]p2p.PeerID, 0, len(done)+len(inflight))
	for _, c := range done {
		out = append(out, c.id)
	}
	for _, c := range inflight {
		out = append(out, c.id)
	}
	return out
}

// CacheOwner implements replication.CacheScorer: it reports whether peer
// (self included) currently advertises a fresh cached result for the named
// service, so the replica table can rank cache owners first when picking a
// retry or recovery target.
func (g *Gossip) CacheOwner(service string, peer p2p.PeerID) bool {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if peer == g.self {
		for _, ad := range g.selfCalls {
			if ad.Service == service && ad.fresh(now) {
				return true
			}
		}
		return false
	}
	e := g.catalog[peer]
	if e == nil {
		return false
	}
	for _, ad := range e.Calls {
		if ad.Service == service && ad.fresh(now) {
			return true
		}
	}
	return false
}

// applyEntryLocked merges one remote catalog entry: higher version wins,
// and the diff against the previously known version is translated into
// table add/remove operations. Entries from dead origins are stored (for
// revival) but not materialized into the table.
func (g *Gossip) applyEntryLocked(e *CatalogEntry, fx *effects) {
	if e.Origin == g.self || e.Origin == "" {
		return
	}
	old := g.catalog[e.Origin]
	if old != nil && e.Version <= old.Version {
		return
	}
	cp := &CatalogEntry{
		Origin:    e.Origin,
		Version:   e.Version,
		Docs:      append([]string(nil), e.Docs...),
		Services:  append([]string(nil), e.Services...),
		Announced: e.Announced,
		Calls:     append([]CallAd(nil), e.Calls...),
		Frags:     append([]FragAd(nil), e.Frags...),
	}
	sort.Strings(cp.Docs)
	sort.Strings(cp.Services)
	sort.Slice(cp.Calls, func(i, j int) bool { return cp.Calls[i].Key < cp.Calls[j].Key })
	sort.Slice(cp.Frags, func(i, j int) bool { return cp.Frags[i].ID < cp.Frags[j].ID })
	g.catalog[e.Origin] = cp
	if !cp.Announced.IsZero() {
		if d := time.Since(cp.Announced); d > 0 {
			fx.converge = append(fx.converge, d)
		}
	}

	var oldDocs, oldSvcs, oldFrags []string
	if old != nil {
		oldDocs, oldSvcs = old.Docs, old.Services
		oldFrags = fragIDsOf(old.Frags)
	}
	newFrags := fragIDsOf(cp.Frags)
	if gone := missingFrom(oldDocs, cp.Docs); len(gone) > 0 {
		fx.removePlacements(cp.Origin, gone, nil)
	}
	if gone := missingFrom(oldSvcs, cp.Services); len(gone) > 0 {
		fx.removePlacements(cp.Origin, nil, gone)
	}
	if gone := missingFrom(oldFrags, newFrags); len(gone) > 0 {
		fx.removeFragments(cp.Origin, gone)
	}
	m := g.members[e.Origin]
	if m != nil && m.state == StateDead {
		return
	}
	if add := missingFrom(cp.Docs, oldDocs); len(add) > 0 {
		fx.addPlacements(cp.Origin, add, nil)
	}
	if add := missingFrom(cp.Services, oldSvcs); len(add) > 0 {
		fx.addPlacements(cp.Origin, nil, add)
	}
	if add := missingFrom(newFrags, oldFrags); len(add) > 0 {
		fx.addFragments(cp.Origin, add)
	}
}

// fragIDsOf projects fragment ads to their IDs for set-diffing.
func fragIDsOf(ads []FragAd) []string {
	if len(ads) == 0 {
		return nil
	}
	out := make([]string, len(ads))
	for i, ad := range ads {
		out[i] = ad.ID
	}
	return out
}

// missingFrom returns the elements of a not present in b.
func missingFrom(a, b []string) []string {
	if len(a) == 0 {
		return nil
	}
	in := make(map[string]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []string
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}

// selfEntryLocked renders this peer's own catalog entry.
func (g *Gossip) selfEntryLocked() CatalogEntry {
	e := CatalogEntry{
		Origin:    g.self,
		Version:   g.selfVersion,
		Announced: g.selfAnnounced,
	}
	for d := range g.selfDocs {
		e.Docs = append(e.Docs, d)
	}
	for s := range g.selfSvcs {
		e.Services = append(e.Services, s)
	}
	for _, ad := range g.selfCalls {
		e.Calls = append(e.Calls, ad)
	}
	for _, ad := range g.selfFrags {
		e.Frags = append(e.Frags, ad)
	}
	sort.Strings(e.Docs)
	sort.Strings(e.Services)
	sort.Slice(e.Calls, func(i, j int) bool { return e.Calls[i].Key < e.Calls[j].Key })
	sort.Slice(e.Frags, func(i, j int) bool { return e.Frags[i].ID < e.Frags[j].ID })
	return e
}

// syncPayloadLocked encodes the full push-pull payload: every known member
// (plus our own record) and every catalog entry (plus our own).
func (g *Gossip) syncPayloadLocked() []byte {
	msg := syncMsg{From: g.self}
	msg.Members = append(msg.Members, memberRecord{
		ID: g.self, State: int(StateAlive), Incarnation: g.incarnation, Addr: g.cfg.AdvertiseAddr,
	})
	ids := make([]p2p.PeerID, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := g.members[id]
		msg.Members = append(msg.Members, memberRecord{
			ID: id, State: int(m.state), Incarnation: m.incarnation, Addr: m.addr,
		})
	}
	if g.selfVersion > 0 {
		msg.Catalog = append(msg.Catalog, g.selfEntryLocked())
	}
	origins := make([]p2p.PeerID, 0, len(g.catalog))
	for o := range g.catalog {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		msg.Catalog = append(msg.Catalog, *g.catalog[o])
	}
	if g.selfSummary != nil {
		msg.Summaries = append(msg.Summaries, *g.selfSummary)
	}
	sids := make([]p2p.PeerID, 0, len(g.summaries))
	for id := range g.summaries {
		sids = append(sids, id)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	for _, id := range sids {
		msg.Summaries = append(msg.Summaries, g.summaries[id].PeerSummary)
	}
	return encode(msg)
}

// Member is the exported view of one membership row (self included).
type Member struct {
	ID          p2p.PeerID `json:"id"`
	State       string     `json:"state"`
	Incarnation uint64     `json:"incarnation"`
	Addr        string     `json:"addr,omitempty"`
	RTTMicros   int64      `json:"rtt_us,omitempty"`
}

// Info is the full diagnostic snapshot served by /members and the
// axmlquery -members admin subject.
type Info struct {
	Self        p2p.PeerID     `json:"self"`
	Incarnation uint64         `json:"incarnation"`
	Round       uint64         `json:"round"`
	Members     []Member       `json:"members"`
	Catalog     []CatalogEntry `json:"catalog"`
}

// Members returns the sorted membership view, self first among equals.
func (g *Gossip) Members() []Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Member, 0, len(g.members)+1)
	out = append(out, Member{
		ID: g.self, State: StateAlive.String(), Incarnation: g.incarnation, Addr: g.cfg.AdvertiseAddr,
	})
	for id, m := range g.members {
		out = append(out, Member{
			ID: id, State: m.state.String(), Incarnation: m.incarnation, Addr: m.addr,
			RTTMicros: g.rtts[id].Microseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CatalogSnapshot returns the known catalog (own entry included), sorted
// by origin, with sorted doc/service lists — directly comparable across
// peers in convergence tests.
func (g *Gossip) CatalogSnapshot() []CatalogEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]CatalogEntry, 0, len(g.catalog)+1)
	if g.selfVersion > 0 {
		out = append(out, g.selfEntryLocked())
	}
	for _, e := range g.catalog {
		out = append(out, CatalogEntry{
			Origin:    e.Origin,
			Version:   e.Version,
			Docs:      append([]string(nil), e.Docs...),
			Services:  append([]string(nil), e.Services...),
			Announced: e.Announced,
			Calls:     append([]CallAd(nil), e.Calls...),
			Frags:     append([]FragAd(nil), e.Frags...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// Info assembles the full snapshot.
func (g *Gossip) Info() Info {
	g.mu.Lock()
	self, inc, round := g.self, g.incarnation, g.round
	g.mu.Unlock()
	return Info{
		Self:        self,
		Incarnation: inc,
		Round:       round,
		Members:     g.Members(),
		Catalog:     g.CatalogSnapshot(),
	}
}
