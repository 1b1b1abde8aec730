package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"axmltx/internal/axml"
	"axmltx/internal/membership"
	"axmltx/internal/obs"
	"axmltx/internal/p2p"
	"axmltx/internal/shard"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// Document sharding: a hosted document can be split into subtree fragments
// (internal/axml) that are placed across peers through the gossip replica
// catalog and reassembled on demand. A placement loop scores per-fragment
// access heat from fetch traffic (weighted by the paper's affected-nodes
// cost measure) and migrates hot fragments toward their dominant callers.
//
// A migration is a WAL-logged handoff with compensation by retention: the
// source ships the fragment at Version+1, logs the handoff, and keeps a
// shadow copy until the catalog shows a live holder. Readers racing the
// handoff prefer the highest advertised version, so they observe either
// complete copy but never a torn fragment; if the destination dies before
// the catalog confirms it, the shadow copy is re-promoted (§3.1's
// compensation discipline applied to placement instead of document state).

// shadowEntry is one retained post-handoff copy: the fragment at its
// shipped version plus the destination the handoff went to, so reconcile
// can distinguish "not yet confirmed" from "destination died".
type shadowEntry struct {
	frag *axml.Fragment
	dest p2p.PeerID
}

// fragState is the per-peer sharding state hanging off Peer.
type fragState struct {
	mu     sync.Mutex
	heat   *shard.Heat
	shadow map[axml.FragmentID]shadowEntry
	seq    uint64 // migration WAL-txn counter
}

func (fs *fragState) init() {
	fs.heat = shard.NewHeat()
	fs.shadow = make(map[axml.FragmentID]shadowEntry)
}

// nextMigTxn returns the WAL transaction ID for the next migration.
func (fs *fragState) nextMigTxn(self p2p.PeerID) string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.seq++
	return "frag-mig-" + string(self) + "-" + strconv.FormatUint(fs.seq, 10)
}

// ShardHostedDocument splits a hosted document into spine + fragments and
// advertises every piece through the catalog. The whole document is
// replaced by its sharded form; materialize it again with
// AssembleSharded.
func (p *Peer) ShardHostedDocument(name string, threshold int) error {
	_, frags, err := p.store.ShardDocument(name, threshold)
	if err != nil {
		return err
	}
	spineID := string(axml.SpineFragmentID(name))
	p.replicas.AddFragment(spineID, p.id)
	if m := p.opts.Membership; m != nil {
		m.AnnounceFragment(membership.FragAd{ID: spineID, Doc: name, Spine: true})
	}
	for _, f := range frags {
		p.replicas.AddFragment(string(f.ID), p.id)
		if m := p.opts.Membership; m != nil {
			m.AnnounceFragment(fragAdOf(f))
		}
	}
	return nil
}

// handleFragFetch serves a fragment (or spine) to an assembling peer and
// attributes the serve cost to the caller's heat score.
func (p *Peer) handleFragFetch(msg *p2p.Message) (*p2p.Message, error) {
	var req FragFetchRequest
	if err := decode(msg.Payload, &req); err != nil {
		return nil, err
	}
	resp := FragFetchResponse{ID: req.ID}
	if doc, ok := spineDoc(req.ID); ok {
		if spine, held := p.store.Spine(doc); held {
			resp.Found = true
			resp.Doc = doc
			resp.XML = spine
			if manifest, ok := p.store.Manifest(doc); ok {
				resp.Manifest = make([]string, len(manifest))
				for i, id := range manifest {
					resp.Manifest[i] = string(id)
				}
			}
		}
	} else if f, ok := p.store.GetFragment(axml.FragmentID(req.ID)); ok {
		resp.Found = true
		resp.Doc = f.Doc
		resp.Root = uint64(f.Root)
		resp.Parent = uint64(f.Parent)
		resp.Pos = f.Pos
		resp.XML = f.XML
		resp.Nodes = f.Nodes
		resp.Version = f.Version
		// Heat attribution: weight by subtree size, the cost this serve
		// represents for the caller's assembly.
		p.frag.heat.Observe(req.ID, string(msg.From), float64(f.Nodes))
	}
	return &p2p.Message{Kind: p2p.KindFragFetch, Payload: encode(&resp)}, nil
}

// spineDoc reports whether id is a "<doc>#spine" pseudo-ID and extracts the
// document name.
func spineDoc(id string) (string, bool) {
	const suffix = "#spine"
	if len(id) > len(suffix) && id[len(id)-len(suffix):] == suffix {
		return id[:len(id)-len(suffix)], true
	}
	return "", false
}

// FetchFragment returns the named fragment, from the local store when held
// here (local access still feeds heat, so a fragment whose traffic is
// already local stays put) or from a catalog-advertised holder otherwise.
func (p *Peer) FetchFragment(ctx context.Context, id axml.FragmentID) (*axml.Fragment, error) {
	if f, ok := p.store.GetFragment(id); ok {
		p.frag.heat.Observe(string(id), string(p.id), float64(f.Nodes))
		return f, nil
	}
	resp, err := p.fragFetchRemote(ctx, string(id))
	if err != nil {
		return nil, err
	}
	return &axml.Fragment{
		ID:      axml.FragmentID(resp.ID),
		Doc:     resp.Doc,
		Root:    xmldom.NodeID(resp.Root),
		Parent:  xmldom.NodeID(resp.Parent),
		Pos:     resp.Pos,
		XML:     resp.XML,
		Nodes:   resp.Nodes,
		Version: resp.Version,
	}, nil
}

// fragFetchRemote walks the advertised holders of id (highest version
// first, so a reader racing a migration prefers the handoff destination)
// until one answers with the fragment.
func (p *Peer) fragFetchRemote(ctx context.Context, id string) (*FragFetchResponse, error) {
	owners := p.fragmentOwners(id)
	var lastErr error
	for _, owner := range owners {
		if owner == p.id {
			continue
		}
		sp := p.tracer.Start("", "", obs.KindFragFetch, id)
		sp.SetTarget(string(owner))
		start := time.Now()
		reply, err := p.transport.Request(ctx, owner, &p2p.Message{
			Kind:    p2p.KindFragFetch,
			Subject: id,
			Payload: encode(&FragFetchRequest{ID: id}),
		})
		if err != nil {
			sp.End(ErrCode(err), err)
			lastErr = err
			continue
		}
		var resp FragFetchResponse
		if err := decode(reply.Payload, &resp); err != nil {
			sp.End(ErrCode(err), err)
			lastErr = err
			continue
		}
		if !resp.Found {
			// The advertisement was stale (fragment migrated away between
			// gossip rounds); try the next holder.
			sp.End("", nil)
			lastErr = fmt.Errorf("core: peer %s no longer holds fragment %s", owner, id)
			continue
		}
		p.noteInvokeRTT(owner, time.Since(start))
		p.metrics.FragFetches.Add(1)
		sp.End("", nil)
		return &resp, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: no holder advertised for fragment %s", id)
	}
	return nil, lastErr
}

// fragmentOwners merges catalog knowledge (version-ranked, live origins)
// with the replication table (RTT-ranked; also the only source for peers
// running without gossip).
func (p *Peer) fragmentOwners(id string) []p2p.PeerID {
	var owners []p2p.PeerID
	if m := p.opts.Membership; m != nil {
		owners = m.FragmentOwners(id)
	}
	seen := make(map[p2p.PeerID]bool, len(owners))
	for _, o := range owners {
		seen[o] = true
	}
	for _, o := range p.replicas.FragmentHolders(id) {
		if !seen[o] {
			owners = append(owners, o)
		}
	}
	return owners
}

// AssembleSharded materializes a sharded document: the spine (local or
// fetched from an advertised holder) plus every manifest fragment, fetched
// concurrently, reassembled with the parallel merge of
// axml.AssembleDocument. The fragment set comes from the manifest fixed at
// split time, not from placement advertisements — a fragment mid-handoff
// may transiently have no advertised holder, and an assembly that silently
// skipped it would be a torn read. Missing fragments fail the assembly
// loudly instead.
func (p *Peer) AssembleSharded(ctx context.Context, name string) (*xmldom.Document, error) {
	spine, ok := p.store.Spine(name)
	var ids []axml.FragmentID
	if ok {
		ids, _ = p.store.Manifest(name)
	} else {
		resp, err := p.fragFetchRemote(ctx, string(axml.SpineFragmentID(name)))
		if err != nil {
			return nil, fmt.Errorf("core: assemble %s: spine: %w", name, err)
		}
		spine = resp.XML
		for _, id := range resp.Manifest {
			ids = append(ids, axml.FragmentID(id))
		}
	}
	frags := make([]*axml.Fragment, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id axml.FragmentID) {
			defer wg.Done()
			frags[i], errs[i] = p.FetchFragment(ctx, id)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: assemble %s: %w", name, err)
		}
	}
	return axml.AssembleDocument(name, spine, frags)
}

// MigrateFragment hands a locally held fragment off to another peer. The
// handoff is WAL-logged (begin → ship → commit) and compensated by
// retention: the local copy moves to the shadow table instead of being
// discarded, and ReconcileFragments re-promotes it if the destination dies
// before the catalog confirms a live holder.
func (p *Peer) MigrateFragment(ctx context.Context, id axml.FragmentID, to p2p.PeerID) error {
	f, ok := p.store.GetFragment(id)
	if !ok {
		return fmt.Errorf("core: migrate: fragment %s not held at %s", id, p.id)
	}
	txn := p.frag.nextMigTxn(p.id)
	sp := p.tracer.Start(txn, "", obs.KindFragMigrate, string(id))
	sp.SetTarget(string(to))

	ship := f.Clone()
	ship.Version++
	// Begin record carries the full before-image: crash recovery replays it
	// to learn which fragment was in flight and at what version.
	_, _ = p.store.Log().Append(&wal.Record{
		Txn: txn, Type: wal.TypeBegin, Doc: f.Doc,
		NodeID: uint64(f.Root), ParentID: uint64(f.Parent), Pos: f.Pos,
		XML: f.XML,
	})
	reply, err := p.transport.Request(ctx, to, &p2p.Message{
		Kind:    p2p.KindFragMigrate,
		Subject: string(id),
		Payload: encode(&FragMigrateRequest{
			ID: string(ship.ID), Doc: ship.Doc,
			Root: uint64(ship.Root), Parent: uint64(ship.Parent), Pos: ship.Pos,
			XML: ship.XML, Nodes: ship.Nodes, Version: ship.Version,
		}),
	})
	var resp FragMigrateResponse
	if err == nil {
		err = decode(reply.Payload, &resp)
	}
	if err == nil && !resp.OK {
		err = fmt.Errorf("core: peer %s refused fragment %s", to, id)
	}
	if err != nil {
		// Backward recovery: the handoff never took effect anywhere, so the
		// abort record alone restores the invariant (we still hold and still
		// advertise the fragment).
		_, _ = p.store.Log().Append(&wal.Record{Txn: txn, Type: wal.TypeAbort, Doc: f.Doc})
		sp.End(ErrCode(err), err)
		return err
	}
	// Handoff acknowledged: retain the shipped copy as a shadow, withdraw
	// our advertisement, and forget the fragment's heat (its history belongs
	// to the new owner's placement decisions now).
	p.frag.mu.Lock()
	p.frag.shadow[id] = shadowEntry{frag: ship, dest: to}
	p.frag.mu.Unlock()
	p.store.RemoveFragment(id)
	p.replicas.RemoveFragment(string(id), p.id)
	if m := p.opts.Membership; m != nil {
		m.WithdrawFragment(string(id))
	}
	p.frag.heat.Forget(string(id))
	_, _ = p.store.Log().Append(&wal.Record{Txn: txn, Type: wal.TypeCommit, Doc: f.Doc})
	p.metrics.FragMigrations.Add(1)
	sp.End("", nil)
	return nil
}

// handleFragMigrate accepts a fragment handoff: store it, advertise it.
func (p *Peer) handleFragMigrate(msg *p2p.Message) (*p2p.Message, error) {
	var req FragMigrateRequest
	if err := decode(msg.Payload, &req); err != nil {
		return nil, err
	}
	f := &axml.Fragment{
		ID:      axml.FragmentID(req.ID),
		Doc:     req.Doc,
		Root:    xmldom.NodeID(req.Root),
		Parent:  xmldom.NodeID(req.Parent),
		Pos:     req.Pos,
		XML:     req.XML,
		Nodes:   req.Nodes,
		Version: req.Version,
	}
	p.store.PutFragment(f)
	p.replicas.AddFragment(req.ID, p.id)
	if m := p.opts.Membership; m != nil {
		m.AnnounceFragment(fragAdOf(f))
	}
	return &p2p.Message{Kind: p2p.KindFragMigrate, Payload: encode(&FragMigrateResponse{ID: req.ID, OK: true})}, nil
}

// ReconcileFragments settles every shadow copy: a fragment with a live
// catalog-advertised holder is confirmed (the shadow drops); one whose
// handoff destination died before the catalog confirmed any holder is
// re-promoted at a bumped version, compensating the lost handoff; one whose
// destination is still live but not yet gossiped simply stays shadowed.
// Wired to membership's OnDown, and run opportunistically by PlacementTick.
func (p *Peer) ReconcileFragments() {
	p.frag.mu.Lock()
	pending := make(map[axml.FragmentID]shadowEntry, len(p.frag.shadow))
	for id, e := range p.frag.shadow {
		pending[id] = e
	}
	p.frag.mu.Unlock()

	for id, e := range pending {
		f := e.frag
		alive := false
		for _, o := range p.fragmentOwners(string(id)) {
			if o != p.id && p.ownerLive(o) {
				alive = true
				break
			}
		}
		if alive {
			p.frag.mu.Lock()
			delete(p.frag.shadow, id)
			p.frag.mu.Unlock()
			continue
		}
		if p.ownerLive(e.dest) {
			// Handoff acked but not yet visible through gossip, and the
			// destination is not known dead: keep waiting. Promoting now
			// would fork ownership against a healthy holder.
			continue
		}
		// Compensation: the destination is gone and nobody else advertises
		// the fragment — promote the shadow copy back to ownership, one
		// version past the shipped copy so a revenant destination can never
		// outrank it.
		txn := p.frag.nextMigTxn(p.id)
		_, _ = p.store.Log().Append(&wal.Record{
			Txn: txn, Type: wal.TypeCompensateBegin, Doc: f.Doc,
			NodeID: uint64(f.Root), XML: f.XML,
		})
		promoted := f.Clone()
		promoted.Version++
		p.store.PutFragment(promoted)
		p.replicas.AddFragment(string(id), p.id)
		if m := p.opts.Membership; m != nil {
			m.AnnounceFragment(fragAdOf(promoted))
		}
		p.frag.mu.Lock()
		delete(p.frag.shadow, id)
		p.frag.mu.Unlock()
		_, _ = p.store.Log().Append(&wal.Record{Txn: txn, Type: wal.TypeCompensateEnd, Doc: f.Doc})
		p.metrics.FragPromotions.Add(1)
	}
}

// ownerLive consults the failure detector about an advertised holder;
// without gossip every holder is presumed live (absence of evidence).
func (p *Peer) ownerLive(o p2p.PeerID) bool {
	if m := p.opts.Membership; m != nil {
		return m.Live(o)
	}
	return true
}

// PlacementTick runs one round of the placement loop: plan migrations from
// the current heat scores (destinations filtered by liveness and RTT) and
// execute them. Returns the number of completed migrations.
func (p *Peer) PlacementTick(ctx context.Context) int {
	planner := &shard.Planner{}
	if m := p.opts.Membership; m != nil {
		planner.Live = func(peer string) bool { return m.Live(p2p.PeerID(peer)) }
		planner.RTT = func(peer string) time.Duration { return m.RTT(p2p.PeerID(peer)) }
	}
	var owned []string
	for _, f := range p.store.Fragments() {
		owned = append(owned, string(f.ID))
	}
	moved := 0
	for _, mv := range planner.Plan(string(p.id), owned, p.frag.heat) {
		if err := p.MigrateFragment(ctx, axml.FragmentID(mv.Frag), p2p.PeerID(mv.To)); err == nil {
			moved++
		}
	}
	// Settle earlier handoffs opportunistically; OnDown already reconciles
	// promptly when gossip declares a destination dead.
	p.ReconcileFragments()
	return moved
}

// StartPlacement runs PlacementTick every interval until the returned stop
// function is called (or the context is cancelled).
func (p *Peer) StartPlacement(ctx context.Context, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				p.PlacementTick(ctx)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// fragAdOf renders a fragment's catalog advertisement.
func fragAdOf(f *axml.Fragment) membership.FragAd {
	return membership.FragAd{
		ID:      string(f.ID),
		Doc:     f.Doc,
		Nodes:   f.Nodes,
		Version: f.Version,
	}
}
