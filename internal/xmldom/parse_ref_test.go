package xmldom

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file keeps the parser the scanner replaced, as the reference the
// equivalence tests compare against: encoding/xml's token stream, one node
// per token, then a copy (adoptRef, rebuildRef) wherever the old callers
// made one.

// parseRef is the former Parse.
func parseRef(name string, r io.Reader) (*Document, error) {
	doc := NewDocument(name)
	dec := xml.NewDecoder(r)
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldom: parse %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := doc.CreateElement(qualNameRef(t.Name))
			for _, a := range t.Attr {
				el.SetAttr(qualNameRef(a.Name), a.Value)
			}
			if len(stack) == 0 {
				if err := doc.SetRoot(el); err != nil {
					return nil, fmt.Errorf("xmldom: parse %s: %w", name, err)
				}
			} else if err := doc.AppendChild(stack[len(stack)-1], el); err != nil {
				return nil, fmt.Errorf("xmldom: parse %s: %w", name, err)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldom: parse %s: unbalanced end element", name)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace outside the root
			}
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue // insignificant whitespace
			}
			parent := stack[len(stack)-1]
			if err := doc.AppendChild(parent, doc.CreateText(text)); err != nil {
				return nil, fmt.Errorf("xmldom: parse %s: %w", name, err)
			}
		case xml.Comment:
			if len(stack) == 0 {
				continue
			}
			parent := stack[len(stack)-1]
			if err := doc.AppendChild(parent, doc.CreateComment(string(t))); err != nil {
				return nil, fmt.Errorf("xmldom: parse %s: %w", name, err)
			}
		}
	}
	if doc.Root() == nil {
		return nil, fmt.Errorf("xmldom: parse %s: no root element", name)
	}
	return doc, nil
}

func parseRefString(name, s string) (*Document, error) {
	return parseRef(name, strings.NewReader(s))
}

// qualNameRef is the former qualName over encoding/xml's resolved names.
func qualNameRef(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	if strings.Contains(n.Space, "://") {
		if strings.Contains(n.Space, "activexml") {
			return "axml:" + n.Local
		}
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// adoptRef is the former Document.Adopt: a deep copy into d with fresh IDs.
func adoptRef(d *Document, foreign *Node) *Node {
	var cp *Node
	switch foreign.kind {
	case ElementNode:
		cp = d.CreateElement(foreign.name)
		cp.attrs = append([]Attr(nil), foreign.attrs...)
	case TextNode:
		cp = d.CreateText(foreign.text)
	case CommentNode:
		cp = d.CreateComment(foreign.text)
	}
	for _, c := range foreign.children {
		child := adoptRef(d, c)
		child.parent = cp
		cp.children = append(cp.children, child)
	}
	return cp
}

// parseFragmentRef is the former ParseFragment.
func parseFragmentRef(dst *Document, s string) (*Node, error) {
	tmp, err := parseRefString("fragment", s)
	if err != nil {
		return nil, err
	}
	return adoptRef(dst, tmp.Root()), nil
}

// parseContentRef is the former data-payload path: wrap, parse, adopt.
func parseContentRef(dst *Document, s string) ([]*Node, error) {
	wrapper, err := parseRefString("fragment", "<frag>"+s+"</frag>")
	if err != nil {
		return nil, err
	}
	var out []*Node
	for _, c := range wrapper.Root().Children() {
		out = append(out, adoptRef(dst, c))
	}
	return out, nil
}

// rebuildRef is the former persisted-ID copy of a parsed tree into doc.
func rebuildRef(doc *Document, src *Node, idAttr string) (*Node, error) {
	var n *Node
	switch src.Kind() {
	case ElementNode:
		if v, ok := src.Attr(idAttr); ok {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q", idAttr, v)
			}
			if n, err = doc.CreateElementWithID(src.Name(), NodeID(id)); err != nil {
				return nil, err
			}
		} else {
			n = doc.CreateElement(src.Name())
		}
		for _, a := range src.Attrs() {
			if a.Name != idAttr {
				n.SetAttr(a.Name, a.Value)
			}
		}
		for _, c := range src.Children() {
			child, err := rebuildRef(doc, c, idAttr)
			if err != nil {
				return nil, err
			}
			if err := doc.AppendChild(n, child); err != nil {
				return nil, err
			}
		}
	case TextNode:
		n = doc.CreateText(src.Text())
	case CommentNode:
		n = doc.CreateComment(src.Text())
	}
	return n, nil
}

// restoreRef is the former checkpoint restore: parse, find the highest
// persisted ID, then rebuild with fresh IDs above it.
func restoreRef(name, s, idAttr string) (*Document, error) {
	parsed, err := parseRefString(name, s)
	if err != nil {
		return nil, err
	}
	var maxID uint64
	parsed.Root().Walk(func(n *Node) bool {
		if v, ok := n.Attr(idAttr); ok {
			if id, err := strconv.ParseUint(v, 10, 64); err == nil && id > maxID {
				maxID = id
			}
		}
		return true
	})
	doc := NewDocument(name)
	doc.EnsureNextID(NodeID(maxID))
	root, err := rebuildRef(doc, parsed.Root(), idAttr)
	if err != nil {
		return nil, err
	}
	if err := doc.SetRoot(root); err != nil {
		return nil, err
	}
	return doc, nil
}

// restoreFragmentRef is the former fragment assembly step: parse, then
// rebuild into dst with dst's allocator.
func restoreFragmentRef(dst *Document, s, idAttr string) (*Node, error) {
	parsed, err := parseRefString("fragment", s)
	if err != nil {
		return nil, err
	}
	return rebuildRef(dst, parsed.Root(), idAttr)
}

// sameNode reports the first difference between two subtrees, comparing
// kinds, names, text, attributes in order, IDs and children; "" if none.
func sameNode(a, b *Node) string {
	switch {
	case a == nil || b == nil:
		if a != b {
			return fmt.Sprintf("nil mismatch: %v vs %v", a, b)
		}
		return ""
	case a.id != b.id || a.kind != b.kind || a.name != b.name || a.text != b.text:
		return fmt.Sprintf("node %d %s %q %q vs node %d %s %q %q",
			a.id, a.kind, a.name, a.text, b.id, b.kind, b.name, b.text)
	case len(a.attrs) != len(b.attrs) || len(a.children) != len(b.children):
		return fmt.Sprintf("node %d: %d attrs %d children vs %d attrs %d children",
			a.id, len(a.attrs), len(a.children), len(b.attrs), len(b.children))
	}
	for i := range a.attrs {
		if a.attrs[i] != b.attrs[i] {
			return fmt.Sprintf("node %d attr %d: %q vs %q", a.id, i, a.attrs[i], b.attrs[i])
		}
	}
	for i := range a.children {
		if a.children[i].parent != a || b.children[i].parent != b {
			return fmt.Sprintf("node %d child %d: parent link", a.id, i)
		}
		if d := sameNode(a.children[i], b.children[i]); d != "" {
			return d
		}
	}
	return ""
}

// sameDoc compares two documents' trees, ID allocators and indexes.
func sameDoc(a, b *Document) string {
	if d := sameNode(a.root, b.root); d != "" {
		return d
	}
	if a.nextID != b.nextID {
		return fmt.Sprintf("nextID %d vs %d", a.nextID, b.nextID)
	}
	if len(a.index) != len(b.index) {
		return fmt.Sprintf("index size %d vs %d", len(a.index), len(b.index))
	}
	for id, n := range a.index {
		m := b.index[id]
		if m == nil || n.kind != m.kind || n.name != m.name || n.text != m.text {
			return fmt.Sprintf("index entry %d differs", id)
		}
	}
	return ""
}
