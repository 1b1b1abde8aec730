package xmldom

import (
	"errors"
	"fmt"
)

// ServiceCallElement is the element name of an embedded service call
// (<axml:sc>), the one element name a Document keeps a count of.
const ServiceCallElement = "axml:sc"

// Document owns a tree of nodes and the ID index over them. A document has
// at most one root element; nodes created by the document but not yet
// attached are "detached" and still indexed, so a deleted subtree can be
// re-attached by a compensating insert with its original IDs intact.
//
// A document also counts its attached ServiceCallElement elements (see
// ServiceCallCount). The count changes only where a subtree joins or
// leaves the tree — SetRoot, InsertChild (and the Append/Insert helpers
// built on it), Detach (and Remove), parsing and Clone — and each of those
// walks just the moving subtree, and only when the other end is attached.
// Nodes never change their names, so nothing else can move it.
//
// A call-free document may also carry a few Indexes over its attached tree,
// which a reader adds (the query evaluator's equality index) and the
// document keeps current at the same hooks; see Index.
type Document struct {
	name    string
	root    *Node
	nextID  NodeID
	index   map[NodeID]*Node
	calls   int     // attached ServiceCallElement elements
	indexes []Index // nil on a document with calls or without a root
}

// An Index is a structure over a document's attached tree that the document
// keeps current. Only a subtree joining or leaving the tree reaches it:
// anything else that could change what it holds (a text or attribute edit
// on an attached node, the first service call, the loss of the root) drops
// every index of the document instead, and Clone copies none.
type Index interface {
	// Attached runs after the subtree rooted at n joined the tree.
	Attached(n *Node)
	// Detached runs after the subtree rooted at n left the tree from under
	// parent.
	Detached(n, parent *Node)
	// Check compares the index with one built afresh; Validate runs it.
	Check() error
}

// MaxIndexes bounds the indexes one document keeps.
const MaxIndexes = 8

// Errors reported by tree mutations.
var (
	ErrForeignNode   = errors.New("xmldom: node belongs to a different document")
	ErrAttached      = errors.New("xmldom: node is already attached")
	ErrDetached      = errors.New("xmldom: node is not attached")
	ErrNotElement    = errors.New("xmldom: node is not an element")
	ErrCycle         = errors.New("xmldom: attaching a node under its own descendant")
	ErrHasRoot       = errors.New("xmldom: document already has a root")
	ErrNoSuchNode    = errors.New("xmldom: no node with that ID")
	ErrBadPosition   = errors.New("xmldom: insert position out of range")
	ErrRootOperation = errors.New("xmldom: operation not valid on the root")
)

// NewDocument returns an empty document with the given name (e.g. the file
// name "ATPList.xml" it is known by in the repository).
func NewDocument(name string) *Document {
	return &Document{
		name:  name,
		index: make(map[NodeID]*Node),
	}
}

// Name returns the document's repository name.
func (d *Document) Name() string { return d.name }

// SetName renames the document, for checkpoint restore, which learns the
// name from the file's content; rename a document before it is shared.
func (d *Document) SetName(name string) { d.name = name }

// Root returns the root element, or nil for an empty document.
func (d *Document) Root() *Node { return d.root }

// SetRoot installs root as the document root. The node must belong to this
// document and be detached. The service calls in root's subtree join the
// count.
func (d *Document) SetRoot(root *Node) error {
	if d.root != nil {
		return ErrHasRoot
	}
	if root.doc != d {
		return ErrForeignNode
	}
	if root.parent != nil {
		return ErrAttached
	}
	d.root = root
	d.calls = countCalls(root)
	// Indexes went with the previous root, so none can be stale here.
	return nil
}

// Indexes returns the document's indexes; the slice is the document's own.
func (d *Document) Indexes() []Index { return d.indexes }

// AddIndex attaches ix, built over the current tree. A document with
// service calls, without a root or already holding MaxIndexes indexes does
// not keep it.
func (d *Document) AddIndex(ix Index) {
	if d.calls == 0 && d.root != nil && len(d.indexes) < MaxIndexes {
		d.indexes = append(d.indexes, ix)
	}
}

// dropIndexes discards every index, for a change the hooks do not follow.
func (d *Document) dropIndexes() { d.indexes = nil }

// touched drops the document's indexes when n, about to change in place, is
// attached: its text or attributes may be what an index holds.
func (n *Node) touched() {
	if d := n.doc; d != nil && d.indexes != nil && d.attached(n) {
		d.dropIndexes()
	}
}

// ServiceCallCount returns the number of ServiceCallElement elements
// attached to the tree, at any depth (inside parameters and results too).
// It is kept up to date by every mutation, so a caller looking for service
// calls can skip a walk of a document that has none.
func (d *Document) ServiceCallCount() int { return d.calls }

// attached reports whether n is reachable from the document root.
func (d *Document) attached(n *Node) bool {
	for n.parent != nil {
		n = n.parent
	}
	return n == d.root
}

// countCalls returns the number of ServiceCallElement elements in the
// subtree rooted at n.
func countCalls(n *Node) int {
	calls := 0
	if n.kind == ElementNode && n.name == ServiceCallElement {
		calls = 1
	}
	for _, c := range n.children {
		if c.kind == ElementNode {
			calls += countCalls(c)
		}
	}
	return calls
}

// ByID returns the node with the given ID (attached or detached), or nil.
func (d *Document) ByID(id NodeID) *Node { return d.index[id] }

// IndexSize returns the number of nodes in the ID index: the attached ones
// plus every detached subtree still kept for re-attachment.
func (d *Document) IndexSize() int { return len(d.index) }

// NodeCount returns the number of nodes currently attached to the tree.
func (d *Document) NodeCount() int {
	if d.root == nil {
		return 0
	}
	return d.root.SubtreeSize()
}

// CreateElement returns a new detached element node owned by this document.
func (d *Document) CreateElement(name string) *Node {
	return d.newNode(ElementNode, name, "")
}

// CreateText returns a new detached text node owned by this document.
func (d *Document) CreateText(text string) *Node {
	return d.newNode(TextNode, "", text)
}

// CreateComment returns a new detached comment node.
func (d *Document) CreateComment(text string) *Node {
	return d.newNode(CommentNode, "", text)
}

func (d *Document) newNode(kind Kind, name, text string) *Node {
	d.nextID++
	n := &Node{id: d.nextID, kind: kind, name: name, text: text, doc: d}
	d.index[n.id] = n
	return n
}

// CreateElementWithID returns a new detached element carrying a specific
// ID. It exists for checkpoint restore: a reloaded document must keep the
// IDs the operation log's compensation records address. The ID must be
// non-zero and unused; the allocator advances past it.
func (d *Document) CreateElementWithID(name string, id NodeID) (*Node, error) {
	if id == InvalidID {
		return nil, fmt.Errorf("xmldom: cannot create node with the invalid ID")
	}
	if _, taken := d.index[id]; taken {
		return nil, fmt.Errorf("xmldom: ID %d already in use", id)
	}
	n := &Node{id: id, kind: ElementNode, name: name, doc: d}
	d.index[id] = n
	if id > d.nextID {
		d.nextID = id
	}
	return n, nil
}

// EnsureNextID raises the ID allocator so that future nodes get IDs above
// min; restore uses it before creating unsaved (text) nodes so they cannot
// collide with element IDs yet to be restored.
func (d *Document) EnsureNextID(min NodeID) {
	if min > d.nextID {
		d.nextID = min
	}
}

// AppendChild attaches child as the last child of parent.
func (d *Document) AppendChild(parent, child *Node) error {
	return d.InsertChild(parent, child, len(parent.children))
}

// InsertChild attaches child under parent at position pos (0 ≤ pos ≤ number
// of children). Positional insertion is what makes compensation of deletes
// in ordered documents exact: the compensating insert restores the deleted
// subtree at the position recorded in the log. When parent is attached, the
// service calls in child's subtree join the count, and the document's
// indexes take the subtree in (or are dropped, by its first call).
func (d *Document) InsertChild(parent, child *Node, pos int) error {
	if parent.doc != d || child.doc != d {
		return ErrForeignNode
	}
	if parent.kind != ElementNode {
		return ErrNotElement
	}
	if child.parent != nil || child == d.root {
		return ErrAttached
	}
	if child == parent || child.IsAncestorOf(parent) {
		return ErrCycle
	}
	if pos < 0 || pos > len(parent.children) {
		return ErrBadPosition
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[pos+1:], parent.children[pos:])
	parent.children[pos] = child
	child.parent = parent
	if d.attached(parent) {
		d.calls += countCalls(child)
		if d.indexes != nil {
			if d.calls > 0 {
				d.dropIndexes()
			}
			for _, ix := range d.indexes {
				ix.Attached(child)
			}
		}
	}
	return nil
}

// InsertBefore attaches child immediately before ref, which must be
// attached. It implements the "insert before/after a specific node"
// semantics from XQuery! updates.
func (d *Document) InsertBefore(ref, child *Node) error {
	if ref.parent == nil {
		return ErrDetached
	}
	return d.InsertChild(ref.parent, child, ref.Index())
}

// InsertAfter attaches child immediately after ref, which must be attached.
func (d *Document) InsertAfter(ref, child *Node) error {
	if ref.parent == nil {
		return ErrDetached
	}
	return d.InsertChild(ref.parent, child, ref.Index()+1)
}

// Detach removes n from its parent and returns its former position. The
// subtree stays owned and indexed by the document so it can be re-attached
// (compensating insert) with identical IDs. Detaching the root empties the
// document and drops its indexes. When n was attached, the service calls in
// its subtree leave the count and the indexes let the subtree go.
func (d *Document) Detach(n *Node) (parent *Node, pos int, err error) {
	if n.doc != d {
		return nil, 0, ErrForeignNode
	}
	if n == d.root {
		d.root = nil
		d.calls = 0
		d.dropIndexes()
		return nil, 0, nil
	}
	if n.parent == nil {
		return nil, 0, ErrDetached
	}
	parent = n.parent
	attached := d.attached(parent)
	if attached {
		d.calls -= countCalls(n)
	}
	pos = n.Index()
	parent.children = append(parent.children[:pos], parent.children[pos+1:]...)
	n.parent = nil
	if attached {
		for _, ix := range d.indexes {
			ix.Detached(n, parent)
		}
	}
	return parent, pos, nil
}

// Remove permanently deletes the subtree rooted at n: it is detached and
// every node in it is dropped from the ID index. Use Detach when the subtree
// may be re-attached later.
func (d *Document) Remove(n *Node) error {
	if _, _, err := d.Detach(n); err != nil {
		return err
	}
	d.unindex(n)
	return nil
}

// Forget drops the detached subtree rooted at n from the ID index, for a
// subtree nothing will re-attach (its deletion is committed), and reports
// whether it did: the root, attached nodes and other documents' nodes are
// left alone.
func (d *Document) Forget(n *Node) bool {
	if n.doc != d || n.parent != nil || n == d.root {
		return false
	}
	d.unindex(n)
	return true
}

func (d *Document) unindex(n *Node) {
	delete(d.index, n.id)
	for _, c := range n.children {
		d.unindex(c)
	}
}

// Clone returns a deep copy of the whole document, with node IDs preserved
// (the copy has the same ID→structure mapping as the original). Cloning is
// used for snapshot comparison in tests and for shipping document fragments
// between peers.
func (d *Document) Clone() *Document {
	cp := NewDocument(d.name)
	cp.nextID, cp.calls = d.nextID, d.calls
	if d.root != nil {
		cp.root = cloneInto(cp, d.root, nil)
	}
	return cp
}

func cloneInto(dst *Document, n *Node, parent *Node) *Node {
	cp := &Node{id: n.id, kind: n.kind, name: n.name, text: n.text, doc: dst, parent: parent}
	cp.attrs = append([]Attr(nil), n.attrs...)
	dst.index[cp.id] = cp
	for _, c := range n.children {
		cp.children = append(cp.children, cloneInto(dst, c, cp))
	}
	return cp
}

// Equal reports structural equality of the two documents' trees (IDs,
// comments and insignificant whitespace ignored).
func (d *Document) Equal(other *Document) bool {
	if d.root == nil || other.root == nil {
		return d.root == other.root
	}
	return d.root.Equal(other.root)
}

// Validate checks internal invariants (index consistency, parent/child
// symmetry, ID uniqueness, the service-call count, every index against a
// fresh build) and returns a descriptive error on violation. It backs the
// property-based tests.
func (d *Document) Validate() error {
	seen := make(map[NodeID]bool)
	var check func(n *Node, parent *Node) error
	check = func(n *Node, parent *Node) error {
		if n.doc != d {
			return fmt.Errorf("node %d: wrong document", n.id)
		}
		if n.parent != parent {
			return fmt.Errorf("node %d: parent link broken", n.id)
		}
		if seen[n.id] {
			return fmt.Errorf("node %d: duplicate ID", n.id)
		}
		seen[n.id] = true
		if got := d.index[n.id]; got != n {
			return fmt.Errorf("node %d: not in index", n.id)
		}
		if n.id > d.nextID {
			return fmt.Errorf("node %d: ID beyond nextID %d", n.id, d.nextID)
		}
		if n.kind != ElementNode && len(n.children) > 0 {
			return fmt.Errorf("node %d: non-element with children", n.id)
		}
		for _, c := range n.children {
			if err := check(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	calls := 0
	if d.root != nil {
		if err := check(d.root, nil); err != nil {
			return err
		}
		calls = countCalls(d.root)
	}
	if calls != d.calls {
		return fmt.Errorf("service-call count %d, tree holds %d", d.calls, calls)
	}
	if d.indexes != nil && (d.calls > 0 || d.root == nil) {
		return fmt.Errorf("%d indexes on a document with %d calls (root %v)", len(d.indexes), d.calls, d.root != nil)
	}
	for _, ix := range d.indexes {
		if err := ix.Check(); err != nil {
			return err
		}
	}
	return nil
}
