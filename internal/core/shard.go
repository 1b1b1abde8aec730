package core

import (
	"context"
	"errors"
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
	// replyBudget is fragReplyBudget; tests lower it to split replies.
	replyBudget int
}

func (fs *fragState) init() {
	fs.heat = shard.NewHeat()
	fs.shadow = make(map[axml.FragmentID]shadowEntry)
	fs.replyBudget = fragReplyBudget
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

// fragReplyBudget is the byte budget of one fragment-fetch reply, half of
// p2p's 64 MiB maxFrame. A reply always carries its first piece, so a frame
// holds at most the budget or one piece, whichever is larger: a document
// whose every fragment could be fetched alone can be fetched in batches.
const fragReplyBudget = 32 << 20

// handleFragFetch serves fragments (and spines) to an assembling peer and
// attributes each fragment's serve cost to the caller's heat score. It
// serves the batch in request order and stops adding pieces once the reply
// reaches its byte budget, marking the rest deferred.
func (p *Peer) handleFragFetch(msg *p2p.Message) (*p2p.Message, error) {
	var req FragFetchRequest
	if err := decode(msg.Payload, &req); err != nil {
		return nil, err
	}
	resp := FragFetchResponse{Pieces: make([]FragPiece, len(req.IDs))}
	used, full := 0, false
	for i, id := range req.IDs {
		pc := &resp.Pieces[i]
		pc.ID = id
		if full {
			pc.Deferred = true
			continue
		}
		if doc, ok := spineDoc(id); ok {
			if spine, held := p.store.Spine(doc); held {
				pc.Found = true
				pc.Doc = doc
				pc.XML = spine
				used += len(spine)
				if manifest, ok := p.store.Manifest(doc); ok {
					pc.Manifest = make([]string, len(manifest))
					for j, fid := range manifest {
						pc.Manifest[j] = string(fid)
						used += len(fid)
					}
				}
			}
		} else if f, ok := p.store.GetFragment(axml.FragmentID(id)); ok {
			if used > 0 && used+len(f.XML) > p.frag.replyBudget {
				pc.Deferred, full = true, true
				continue
			}
			used += len(f.XML)
			*pc = FragPiece{
				ID: id, Found: true, Doc: f.Doc,
				Root: uint64(f.Root), Parent: uint64(f.Parent), Pos: f.Pos,
				XML: f.XML, Nodes: f.Nodes, Version: f.Version,
			}
			// Heat attribution: weight by subtree size, the cost this serve
			// represents for the caller's assembly.
			p.frag.heat.Observe(id, string(msg.From), float64(f.Nodes))
		}
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
	if f, ok := p.localFragment(id); ok {
		return f, nil
	}
	pieces, err := p.fetchPieces(ctx, []string{string(id)})
	if err != nil {
		return nil, err
	}
	return pieceFragment(&pieces[0]), nil
}

// localFragment returns a fragment this peer holds and counts the access in
// its own heat table.
func (p *Peer) localFragment(id axml.FragmentID) (*axml.Fragment, bool) {
	f, ok := p.store.GetFragment(id)
	if ok {
		p.frag.heat.Observe(string(id), string(p.id), float64(f.Nodes))
	}
	return f, ok
}

func pieceFragment(pc *FragPiece) *axml.Fragment {
	return &axml.Fragment{
		ID:      axml.FragmentID(pc.ID),
		Doc:     pc.Doc,
		Root:    xmldom.NodeID(pc.Root),
		Parent:  xmldom.NodeID(pc.Parent),
		Pos:     pc.Pos,
		XML:     pc.XML,
		Nodes:   pc.Nodes,
		Version: pc.Version,
	}
}

// fetchBatch is one round's request to one holder: the positions, in the
// caller's ID list, of the IDs it is asked for.
type fetchBatch struct {
	holder p2p.PeerID
	idx    []int
	pieces []FragPiece
	err    error
}

// fetchPieces gets every named piece from other peers, in rounds. Each
// round groups the IDs still wanted by their best remaining holder (highest
// version first, so a reader racing a migration prefers the handoff
// destination) and sends one request per holder; the first request runs on
// the calling goroutine and only the others start one. An ID its holder no
// longer has, or whose request failed, moves to its next-ranked holder; an
// ID the holder deferred goes back to the same holder. An ID with no holder
// left fails the fetch with an error naming it.
func (p *Peer) fetchPieces(ctx context.Context, ids []string) ([]FragPiece, error) {
	out := make([]FragPiece, len(ids))
	holders := make([][]p2p.PeerID, len(ids))
	lastErr := make([]error, len(ids))
	pending := make([]int, len(ids))
	for i, id := range ids {
		hs := p.fragmentOwners(id)
		remote := hs[:0]
		for _, h := range hs {
			if h != p.id {
				remote = append(remote, h)
			}
		}
		holders[i] = remote
		pending[i] = i
	}
	for len(pending) > 0 {
		var batches []fetchBatch
		for _, i := range pending {
			if len(holders[i]) == 0 {
				if lastErr[i] != nil {
					return nil, lastErr[i]
				}
				return nil, fmt.Errorf("core: no holder advertised for fragment %s", ids[i])
			}
			b := 0
			for b < len(batches) && batches[b].holder != holders[i][0] {
				b++
			}
			if b == len(batches) {
				batches = append(batches, fetchBatch{holder: holders[i][0]})
			}
			batches[b].idx = append(batches[b].idx, i)
		}
		var wg sync.WaitGroup
		for b := 1; b < len(batches); b++ {
			wg.Add(1)
			go func(b *fetchBatch) {
				defer wg.Done()
				b.pieces, b.err = p.fragFetch(ctx, b.holder, ids, b.idx)
			}(&batches[b])
		}
		first := &batches[0]
		first.pieces, first.err = p.fragFetch(ctx, first.holder, ids, first.idx)
		wg.Wait()
		pending = pending[:0]
		for _, b := range batches {
			for k, i := range b.idx {
				switch {
				case b.err != nil:
					lastErr[i] = fmt.Errorf("core: fetch fragment %s from %s: %w", ids[i], b.holder, b.err)
				case b.pieces[k].Deferred:
					pending = append(pending, i)
					continue
				case !b.pieces[k].Found:
					// The advertisement was stale (the fragment migrated away
					// between gossip rounds).
					lastErr[i] = fmt.Errorf("core: peer %s no longer holds fragment %s", b.holder, ids[i])
				default:
					out[i] = b.pieces[k]
					continue
				}
				holders[i] = holders[i][1:]
				pending = append(pending, i)
			}
		}
	}
	return out, nil
}

// fragFetch sends one fragment-fetch request to holder for ids[idx...] and
// returns its pieces in request order.
func (p *Peer) fragFetch(ctx context.Context, holder p2p.PeerID, ids []string, idx []int) ([]FragPiece, error) {
	want := make([]string, len(idx))
	for k, i := range idx {
		want[k] = ids[i]
	}
	sp := p.tracer.Start("", "", obs.KindFragFetch, want[0])
	sp.SetTarget(string(holder))
	start := time.Now()
	reply, err := p.transport.Request(ctx, holder, &p2p.Message{
		Kind:    p2p.KindFragFetch,
		Subject: want[0],
		Payload: encode(&FragFetchRequest{IDs: want}),
	})
	var resp FragFetchResponse
	if err == nil {
		err = decode(reply.Payload, &resp)
	}
	if err == nil {
		err = checkPieces(want, resp.Pieces)
	}
	if err != nil {
		sp.End(ErrCode(err), err)
		return nil, err
	}
	p.noteInvokeRTT(holder, time.Since(start))
	p.metrics.FragFetches.Add(1)
	sp.End("", nil)
	return resp.Pieces, nil
}

// checkPieces validates a reply against its request: one piece per ID, in
// order, and the first piece answered, so every round makes progress.
func checkPieces(want []string, pieces []FragPiece) error {
	if len(pieces) != len(want) {
		return fmt.Errorf("core: fragment fetch answered %d of %d IDs", len(pieces), len(want))
	}
	for k, pc := range pieces {
		if pc.ID != want[k] {
			return fmt.Errorf("core: fragment fetch answered %s for %s", pc.ID, want[k])
		}
	}
	if pieces[0].Deferred {
		return errors.New("core: fragment fetch deferred its first piece")
	}
	return nil
}

// fragmentOwners merges catalog knowledge (version-ranked, live origins)
// with the replication table (RTT-ranked; also the only source for peers
// running without gossip).
func (p *Peer) fragmentOwners(id string) []p2p.PeerID {
	m := p.opts.Membership
	if m == nil {
		return p.replicas.FragmentHolders(id)
	}
	owners := m.FragmentOwners(id)
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

// AssembleSharded materializes a sharded document in two rounds: the spine
// (local, or one request to an advertised holder, which also returns the
// manifest), then every manifest fragment not held here, one request per
// holder (fetchPieces), reassembled by axml.AssembleDocument. The fragment
// set comes from the manifest fixed at split time, not from placement
// advertisements — a fragment mid-handoff may transiently have no
// advertised holder, and an assembly that silently skipped it would be a
// torn read. Missing fragments fail the assembly loudly instead.
func (p *Peer) AssembleSharded(ctx context.Context, name string) (*xmldom.Document, error) {
	spine, ok := p.store.Spine(name)
	var ids []axml.FragmentID
	if ok {
		ids, _ = p.store.Manifest(name)
	} else {
		pieces, err := p.fetchPieces(ctx, []string{string(axml.SpineFragmentID(name))})
		if err != nil {
			return nil, fmt.Errorf("core: assemble %s: spine: %w", name, err)
		}
		spine = pieces[0].XML
		ids = make([]axml.FragmentID, len(pieces[0].Manifest))
		for i, id := range pieces[0].Manifest {
			ids[i] = axml.FragmentID(id)
		}
	}
	frags := make([]*axml.Fragment, len(ids))
	var remote []string
	var slots []int
	for i, id := range ids {
		if f, ok := p.localFragment(id); ok {
			frags[i] = f
			continue
		}
		remote = append(remote, string(id))
		slots = append(slots, i)
	}
	if len(remote) > 0 {
		pieces, err := p.fetchPieces(ctx, remote)
		if err != nil {
			return nil, fmt.Errorf("core: assemble %s: %w", name, err)
		}
		for k, i := range slots {
			frags[i] = pieceFragment(&pieces[k])
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
	log := p.store.Log()
	// The begin record carries the fragment's before-image and position.
	// No recovery path reads it yet: restart recovery acts only on effect
	// records, and a failed handoff is settled in memory (the abort record
	// below, or ReconcileFragments re-promoting the shadow copy). A begin
	// that cannot be appended still stops the handoff.
	if _, err := log.Append(&wal.Record{
		Txn: txn, Type: wal.TypeBegin, Doc: f.Doc,
		NodeID: uint64(f.Root), ParentID: uint64(f.Parent), Pos: f.Pos,
		XML: f.XML,
	}); err != nil {
		err = fmt.Errorf("core: migrate %s: begin record: %w", id, err)
		sp.End(ErrCode(err), err)
		return err
	}
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
		if _, aerr := log.Append(&wal.Record{Txn: txn, Type: wal.TypeAbort, Doc: f.Doc}); aerr != nil {
			err = errors.Join(err, fmt.Errorf("core: migrate %s: abort record: %w", id, aerr))
		}
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
	if _, err := log.Append(&wal.Record{Txn: txn, Type: wal.TypeCommit, Doc: f.Doc}); err != nil {
		err = fmt.Errorf("core: migrate %s: commit record: %w", id, err)
		sp.End(ErrCode(err), err)
		return err
	}
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
		// outrank it. A promotion whose begin record failed stays shadowed
		// for the next pass: unlogged, it could not be recovered.
		txn := p.frag.nextMigTxn(p.id)
		if _, err := p.store.Log().Append(&wal.Record{
			Txn: txn, Type: wal.TypeCompensateBegin, Doc: f.Doc,
			NodeID: uint64(f.Root), XML: f.XML,
		}); err != nil {
			p.metrics.AbortErrors.Add(1)
			continue
		}
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
		if _, err := p.store.Log().Append(&wal.Record{Txn: txn, Type: wal.TypeCompensateEnd, Doc: f.Doc}); err != nil {
			p.metrics.AbortErrors.Add(1)
		}
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
