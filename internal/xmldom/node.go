// Package xmldom implements an ordered, mutable XML document tree with
// stable per-node identifiers.
//
// The tree is the storage substrate for AXML documents. Node identity
// matters transactionally: the paper's compensation for an insert operation
// is "delete the node having the corresponding ID", so identifiers must be
// unique within a document, survive detachment, and be preserved when a
// compensating insert re-attaches a previously deleted subtree.
//
// The package is not safe for concurrent mutation of one document; callers
// (the transaction layer) serialize access with document latches.
package xmldom

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node uniquely within its document. IDs are never
// reused for the lifetime of a document, even after the node is deleted.
type NodeID uint64

// InvalidID is the zero NodeID; no live node ever has it.
const InvalidID NodeID = 0

// Kind discriminates the node variants stored in the tree.
type Kind uint8

const (
	// ElementNode is a named element with attributes and children.
	ElementNode Kind = iota + 1
	// TextNode is a leaf holding character data.
	TextNode
	// CommentNode is a leaf holding a comment; comments round-trip through
	// parse/serialize but are invisible to queries.
	CommentNode
)

func (k Kind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute. Attribute order is preserved on parse and
// serialize so documents round-trip byte-identically.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of a document tree. All mutation goes through methods so
// the parent/child links and the document's ID index stay consistent.
type Node struct {
	id       NodeID
	kind     Kind
	name     string // element name, including prefix (e.g. "axml:sc")
	text     string // text/comment content
	attrs    []Attr
	parent   *Node
	children []*Node
	doc      *Document
}

// ID returns the node's document-unique identifier.
func (n *Node) ID() NodeID { return n.id }

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Name returns the element name; it is empty for text and comment nodes.
func (n *Node) Name() string { return n.name }

// Text returns the character data of a text or comment node, or "" for
// elements. Use TextContent for the concatenated text below an element.
func (n *Node) Text() string { return n.text }

// SetText replaces the character data of a text or comment node. On an
// attached node it drops the document's indexes.
func (n *Node) SetText(s string) {
	if n.kind == ElementNode {
		panic("xmldom: SetText on element node")
	}
	n.touched()
	n.text = s
}

// Parent returns the parent node, or nil for the root and detached nodes.
func (n *Node) Parent() *Node { return n.parent }

// Document returns the owning document, or nil for detached foreign nodes.
func (n *Node) Document() *Document { return n.doc }

// Children returns the node's children in document order. The returned slice
// is the node's own; callers must not mutate it.
func (n *Node) Children() []*Node { return n.children }

// ChildCount returns the number of children.
func (n *Node) ChildCount() int { return len(n.children) }

// Child returns the i-th child, or nil if out of range.
func (n *Node) Child(i int) *Node {
	if i < 0 || i >= len(n.children) {
		return nil
	}
	return n.children[i]
}

// Index returns the node's position among its parent's children, or -1 for
// a detached or root node.
func (n *Node) Index() int {
	if n.parent == nil {
		return -1
	}
	for i, c := range n.parent.children {
		if c == n {
			return i
		}
	}
	return -1
}

// Attrs returns the attributes in document order; the slice is the node's
// own and must not be mutated by callers.
func (n *Node) Attrs() []Attr { return n.attrs }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrDefault returns the named attribute's value, or def when absent.
func (n *Node) AttrDefault(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets or replaces the named attribute, preserving position when the
// attribute already exists. On an attached node it drops the document's
// indexes.
func (n *Node) SetAttr(name, value string) {
	n.touched()
	for i := range n.attrs {
		if n.attrs[i].Name == name {
			n.attrs[i].Value = value
			return
		}
	}
	n.attrs = append(n.attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes the named attribute if present and reports whether it
// was present. On an attached node it drops the document's indexes.
func (n *Node) RemoveAttr(name string) bool {
	n.touched()
	for i := range n.attrs {
		if n.attrs[i].Name == name {
			n.attrs = append(n.attrs[:i], n.attrs[i+1:]...)
			return true
		}
	}
	return false
}

// TextContent returns the concatenation of all text beneath the node, in
// document order. For a text node it is the node's own text.
func (n *Node) TextContent() string {
	switch n.kind {
	case TextNode:
		return n.text
	case CommentNode:
		return ""
	}
	if t, ok := n.soleText(); ok {
		return t
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

// soleText returns the text of the only text node among an element's
// children, or "" when there is none, so the common <points>123</points>
// shape needs no builder; ok is false when there are element children or
// more than one text node.
func (n *Node) soleText() (text string, ok bool) {
	found := false
	for _, c := range n.children {
		switch c.kind {
		case TextNode:
			if found {
				return "", false
			}
			text, found = c.text, true
		case ElementNode:
			return "", false
		}
	}
	return text, true
}

func (n *Node) appendText(b *strings.Builder) {
	for _, c := range n.children {
		switch c.kind {
		case TextNode:
			b.WriteString(c.text)
		case ElementNode:
			c.appendText(b)
		}
	}
}

// Elements returns the element children only, in document order.
func (n *Node) Elements() []*Node {
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		if c.kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// FirstElement returns the first element child with the given name, or nil.
func (n *Node) FirstElement(name string) *Node {
	for _, c := range n.children {
		if c.kind == ElementNode && c.name == name {
			return c
		}
	}
	return nil
}

// LocalName returns the element name with any namespace prefix removed.
func (n *Node) LocalName() string {
	if i := strings.IndexByte(n.name, ':'); i >= 0 {
		return n.name[i+1:]
	}
	return n.name
}

// IsAncestorOf reports whether n is a (strict) ancestor of other.
func (n *Node) IsAncestorOf(other *Node) bool {
	for p := other.parent; p != nil; p = p.parent {
		if p == n {
			return true
		}
	}
	return false
}

// Walk visits n and every descendant in document order. Returning false from
// fn prunes the walk below that node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.children {
		c.Walk(fn)
	}
}

// SubtreeSize returns the number of nodes in the subtree rooted at n,
// including n itself. It is the paper's "number of XML nodes affected"
// cost measure for operations on the subtree.
func (n *Node) SubtreeSize() int {
	size := 1
	for _, c := range n.children {
		size += c.SubtreeSize()
	}
	return size
}

// Path returns a human-readable absolute path of element names from the
// document root to n, for diagnostics (e.g. "/ATPList/player[0]/name").
func (n *Node) Path() string {
	if n.parent == nil {
		if n.kind == ElementNode {
			return "/" + n.name
		}
		return "/" + n.kind.String()
	}
	idx := 0
	for _, sib := range n.parent.children {
		if sib == n {
			break
		}
		if sib.kind == n.kind && sib.name == n.name {
			idx++
		}
	}
	label := n.name
	if n.kind != ElementNode {
		label = "#" + n.kind.String()
	}
	return fmt.Sprintf("%s/%s[%d]", n.parent.Path(), label, idx)
}

// Equal reports deep structural equality with other, ignoring node IDs and
// comments. Attribute order is ignored; child order is significant.
func (n *Node) Equal(other *Node) bool {
	if n == nil || other == nil {
		return n == other
	}
	if n.kind != other.kind || n.name != other.name || n.text != other.text {
		return false
	}
	if len(n.attrs) != len(other.attrs) {
		return false
	}
	as, bs := sortedAttrs(n.attrs), sortedAttrs(other.attrs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	ac, bc := significantChildren(n), significantChildren(other)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !ac[i].Equal(bc[i]) {
			return false
		}
	}
	return true
}

func sortedAttrs(attrs []Attr) []Attr {
	out := append([]Attr(nil), attrs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// significantChildren filters comment nodes and whitespace-only text nodes
// and merges adjacent text nodes, none of which are distinguishable after a
// serialize/parse round trip and so are irrelevant to structural equality.
func significantChildren(n *Node) []*Node {
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		if c.kind == CommentNode {
			continue
		}
		if c.kind == TextNode && strings.TrimSpace(c.text) == "" {
			continue
		}
		if c.kind == TextNode && len(out) > 0 && out[len(out)-1].kind == TextNode {
			merged := &Node{kind: TextNode, text: out[len(out)-1].text + c.text}
			out[len(out)-1] = merged
			continue
		}
		out = append(out, c)
	}
	return out
}
