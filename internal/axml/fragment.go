package axml

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"axmltx/internal/xmldom"
)

// Fragment-addressed storage: a document can be split into subtree
// fragments that live on different peers and are reassembled on demand.
//
// A fragment is one element subtree detached from its document, addressed
// by a FragmentID derived from the subtree root's stable node ID. Node IDs
// survive persistence (persist.go), compensation (compensating inserts
// re-attach subtrees with their original IDs) and cloning, so a fragment
// keeps its identity across re-materialization, checkpoint/restore and
// migration between peers — exactly the property the operation log's
// compensation records rely on for nodes, lifted to subtrees.
//
// The wire format of a fragment body reuses the checkpoint format: the
// subtree serialized with every element carrying its node ID in the
// reserved idAttr attribute, rebuilt on the far side with
// CreateElementWithID. A fragment therefore round-trips byte-exactly
// through split → ship → assemble.

// FragmentID addresses one subtree fragment cluster-wide. The textual form
// is "<document name>#<root node ID>"; it is stable for the lifetime of
// the subtree because node IDs are never reused within a document.
type FragmentID string

// MakeFragmentID derives the fragment ID for a subtree of doc rooted at
// the element with the given node ID.
func MakeFragmentID(doc string, root xmldom.NodeID) FragmentID {
	return FragmentID(doc + "#" + strconv.FormatUint(uint64(root), 10))
}

// SpineFragmentID is the pseudo fragment ID under which a sharded
// document's spine is advertised and fetched ("<doc>#spine"). It is not a
// real fragment — ParseFragmentID rejects it — but it travels through the
// same catalog and fetch machinery.
func SpineFragmentID(doc string) FragmentID {
	return FragmentID(doc + "#spine")
}

// ParseFragmentID splits a fragment ID back into document name and root
// node ID.
func ParseFragmentID(id FragmentID) (doc string, root xmldom.NodeID, err error) {
	s := string(id)
	i := strings.LastIndexByte(s, '#')
	if i < 0 {
		return "", 0, fmt.Errorf("axml: malformed fragment ID %q", s)
	}
	n, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("axml: malformed fragment ID %q: %w", s, err)
	}
	return s[:i], xmldom.NodeID(n), nil
}

// Fragment is one detached subtree of a sharded document, self-contained
// enough to be shipped to another peer and re-attached during assembly.
type Fragment struct {
	ID   FragmentID
	Doc  string        // owning document name
	Root xmldom.NodeID // node ID of the subtree root element
	// Parent and Pos locate the subtree in the spine: the node ID of the
	// element it hangs under and its child index at split time. Assembly
	// re-inserts fragments in ascending (Parent, Pos) order, which
	// reconstructs the original child order exactly because splitting only
	// removes subtrees, never reorders survivors.
	Parent xmldom.NodeID
	Pos    int
	// XML is the subtree in checkpoint form: idAttr-annotated elements.
	XML string
	// Nodes is the subtree size (the paper's affected-nodes cost measure),
	// advertised through the catalog so placement can weigh fragments.
	Nodes int
	// Version orders ownership handoffs: a migration ships the fragment
	// with Version+1, and readers prefer the highest version they can
	// reach, so an in-flight fetch racing a migration sees either complete
	// copy but never a torn one.
	Version uint64
}

// Clone returns an independent copy of the fragment.
func (f *Fragment) Clone() *Fragment {
	cp := *f
	return &cp
}

// DefaultFragmentThreshold is the minimum subtree size (in nodes) for a
// top-level subtree to be split out as a fragment; smaller subtrees stay
// in the spine.
const DefaultFragmentThreshold = 4

// SplitDocument splits doc into a spine and a set of fragments: every
// element child of the root whose subtree size is at least threshold
// (DefaultFragmentThreshold when threshold <= 0) becomes a fragment; the
// rest of the tree, with those subtrees removed, is the spine, returned in
// the same idAttr-annotated checkpoint form. doc itself is not modified.
func SplitDocument(doc *xmldom.Document, threshold int) (spine string, frags []*Fragment, err error) {
	if threshold <= 0 {
		threshold = DefaultFragmentThreshold
	}
	if doc.Root() == nil {
		return "", nil, fmt.Errorf("axml: split %s: empty document", doc.Name())
	}
	// Work on an annotated clone so the live tree never carries idAttr.
	cp := doc.Clone()
	cp.Root().Walk(func(n *xmldom.Node) bool {
		if n.Kind() == xmldom.ElementNode {
			n.SetAttr(idAttr, strconv.FormatUint(uint64(n.ID()), 10))
		}
		return true
	})
	// Choose fragment roots among the root's element children. Positions
	// are recorded before any detachment so they index the original child
	// order.
	type pick struct {
		node *xmldom.Node
		pos  int
	}
	var picks []pick
	for i, c := range cp.Root().Children() {
		if c.Kind() == xmldom.ElementNode && c.SubtreeSize() >= threshold {
			picks = append(picks, pick{node: c, pos: i})
		}
	}
	for _, p := range picks {
		parentID := p.node.Parent().ID()
		if _, _, err := cp.Detach(p.node); err != nil {
			return "", nil, fmt.Errorf("axml: split %s: %w", doc.Name(), err)
		}
		var b strings.Builder
		if err := xmldom.Serialize(&b, p.node); err != nil {
			return "", nil, fmt.Errorf("axml: split %s: %w", doc.Name(), err)
		}
		frags = append(frags, &Fragment{
			ID:      MakeFragmentID(doc.Name(), p.node.ID()),
			Doc:     doc.Name(),
			Root:    p.node.ID(),
			Parent:  parentID,
			Pos:     p.pos,
			XML:     b.String(),
			Nodes:   p.node.SubtreeSize(),
			Version: 1,
		})
	}
	return xmldom.DocumentString(cp), frags, nil
}

// AssembleDocument rebuilds a document from its spine and fragments. The
// fragment XML bodies are parsed in parallel (the expensive part of
// assembly); re-attachment into the target tree is sequential and ordered
// by (Parent, Pos) so sibling order is reconstructed exactly. Fragments
// whose parent no longer exists in the spine are rejected — a torn or
// mismatched fragment set must fail loudly, never assemble silently wrong.
func AssembleDocument(name, spine string, frags []*Fragment) (*xmldom.Document, error) {
	doc, err := restoreDoc(name, spine)
	if err != nil {
		return nil, fmt.Errorf("axml: assemble %s: %w", name, err)
	}
	if len(frags) == 0 {
		return doc, nil
	}
	// Parse every fragment body concurrently into its own scratch document.
	parsed := make([]*xmldom.Document, len(frags))
	errs := make([]error, len(frags))
	var wg sync.WaitGroup
	for i, f := range frags {
		wg.Add(1)
		go func(i int, f *Fragment) {
			defer wg.Done()
			parsed[i], errs[i] = xmldom.ParseString(string(f.ID), f.XML)
		}(i, f)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("axml: assemble %s: fragment %s: %w", name, frags[i].ID, err)
		}
	}
	order := make([]int, len(frags))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := frags[order[a]], frags[order[b]]
		if fa.Parent != fb.Parent {
			return fa.Parent < fb.Parent
		}
		return fa.Pos < fb.Pos
	})
	for _, i := range order {
		f := frags[i]
		parent := doc.ByID(f.Parent)
		if parent == nil {
			return nil, fmt.Errorf("axml: assemble %s: fragment %s: parent node %d not in spine", name, f.ID, f.Parent)
		}
		sub, err := rebuild(doc, parsed[i].Root(), name)
		if err != nil {
			return nil, fmt.Errorf("axml: assemble %s: fragment %s: %w", name, f.ID, err)
		}
		pos := f.Pos
		if n := parent.ChildCount(); pos > n {
			pos = n
		}
		if err := doc.InsertChild(parent, sub, pos); err != nil {
			return nil, fmt.Errorf("axml: assemble %s: fragment %s: %w", name, f.ID, err)
		}
	}
	return doc, nil
}

// --- fragment table -------------------------------------------------------

// PutFragment stores (or replaces) a fragment this peer holds. A stale
// replace — lower version than the stored copy — is ignored, so a delayed
// re-delivery can never roll a fragment back.
func (s *Store) PutFragment(f *Fragment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frags == nil {
		s.frags = make(map[FragmentID]*Fragment)
	}
	if old, ok := s.frags[f.ID]; ok && old.Version > f.Version {
		return
	}
	s.frags[f.ID] = f.Clone()
}

// GetFragment returns a copy of the named fragment, if held locally.
func (s *Store) GetFragment(id FragmentID) (*Fragment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frags[id]
	if !ok {
		return nil, false
	}
	return f.Clone(), true
}

// RemoveFragment drops the named fragment and reports whether it was held.
func (s *Store) RemoveFragment(id FragmentID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.frags[id]; !ok {
		return false
	}
	delete(s.frags, id)
	return true
}

// Fragments returns copies of every locally held fragment, sorted by ID.
func (s *Store) Fragments() []*Fragment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Fragment, 0, len(s.frags))
	for _, f := range s.frags {
		out = append(out, f.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Spine returns the stored spine for a sharded document and whether the
// document is sharded on this peer.
func (s *Store) Spine(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.spines[name]
	return sp, ok
}

// Manifest returns the complete fragment ID set of a sharded document,
// fixed at split time. An assembly must gather exactly these fragments; a
// shorter list means a torn read, so the manifest travels with the spine
// rather than being inferred from (possibly transiently incomplete)
// placement advertisements.
func (s *Store) Manifest(name string) ([]FragmentID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, ok := s.manifests[name]
	if !ok {
		return nil, false
	}
	out := make([]FragmentID, len(ids))
	copy(out, ids)
	return out, true
}

// ShardDocument splits the named (whole) document into a spine plus
// fragments, replacing the whole document with its sharded form: the spine
// is recorded, the fragments enter the local fragment table, and the whole
// document is dropped from the docs map. It returns the fragments for the
// caller to announce/place. The split runs under the document's latch.
func (s *Store) ShardDocument(name string, threshold int) (string, []*Fragment, error) {
	e, ok := s.latch(name)
	if !ok {
		return "", nil, fmt.Errorf("axml: shard: unknown document %q", name)
	}
	defer e.latch.Unlock()
	doc := e.doc
	spine, frags, err := SplitDocument(doc, threshold)
	if err != nil {
		return "", nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frags == nil {
		s.frags = make(map[FragmentID]*Fragment)
	}
	if s.spines == nil {
		s.spines = make(map[string]string)
	}
	if s.manifests == nil {
		s.manifests = make(map[string][]FragmentID)
	}
	s.spines[doc.Name()] = spine
	manifest := make([]FragmentID, 0, len(frags))
	for _, f := range frags {
		s.frags[f.ID] = f.Clone()
		manifest = append(manifest, f.ID)
	}
	s.manifests[doc.Name()] = manifest
	delete(s.docs, doc.Name())
	return spine, frags, nil
}
