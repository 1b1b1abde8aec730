package axml

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"axmltx/internal/xmldom"
)

// The data, restore and assembly paths parse straight into their
// destination document. These tests hold them to the paths they replaced:
// parse into a scratch document, then copy (adopt for data, rebuild with
// persisted IDs for restore and assembly).

// adoptRef deep-copies n into doc with fresh IDs, as Document.Adopt did.
func adoptRef(doc *xmldom.Document, n *xmldom.Node) *xmldom.Node {
	var cp *xmldom.Node
	switch n.Kind() {
	case xmldom.ElementNode:
		cp = doc.CreateElement(n.Name())
		for _, a := range n.Attrs() {
			cp.SetAttr(a.Name, a.Value)
		}
	case xmldom.TextNode:
		cp = doc.CreateText(n.Text())
	case xmldom.CommentNode:
		cp = doc.CreateComment(n.Text())
	}
	for _, c := range n.Children() {
		if err := doc.AppendChild(cp, adoptRef(doc, c)); err != nil {
			panic(err)
		}
	}
	return cp
}

// parseFragmentsRef is the former parseFragments: wrap, parse, adopt.
func parseFragmentsRef(doc *xmldom.Document, data string) ([]*xmldom.Node, error) {
	wrapper, err := xmldom.ParseString("fragment", "<frag>"+data+"</frag>")
	if err != nil {
		return nil, err
	}
	children := wrapper.Root().Children()
	if len(children) == 0 {
		return nil, fmt.Errorf("axml: empty data fragment")
	}
	out := make([]*xmldom.Node, 0, len(children))
	for _, c := range children {
		out = append(out, adoptRef(doc, c))
	}
	return out, nil
}

// rebuildRef is the former rebuild: copy src into doc, taking element IDs
// from idAttr and fresh IDs for the rest.
func rebuildRef(doc *xmldom.Document, src *xmldom.Node) (*xmldom.Node, error) {
	var n *xmldom.Node
	switch src.Kind() {
	case xmldom.ElementNode:
		if v, ok := src.Attr(idAttr); ok {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q", idAttr, v)
			}
			if n, err = doc.CreateElementWithID(src.Name(), xmldom.NodeID(id)); err != nil {
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
			child, err := rebuildRef(doc, c)
			if err != nil {
				return nil, err
			}
			if err := doc.AppendChild(n, child); err != nil {
				return nil, err
			}
		}
	case xmldom.TextNode:
		n = doc.CreateText(src.Text())
	case xmldom.CommentNode:
		n = doc.CreateComment(src.Text())
	}
	return n, nil
}

// restoreDocRef is the former restoreDoc: parse, find the highest
// persisted ID, rebuild above it.
func restoreDocRef(name, raw string) (*xmldom.Document, error) {
	parsed, err := xmldom.ParseString(name, raw)
	if err != nil {
		return nil, err
	}
	var maxID uint64
	parsed.Root().Walk(func(n *xmldom.Node) bool {
		if v, ok := n.Attr(idAttr); ok {
			if id, err := strconv.ParseUint(v, 10, 64); err == nil && id > maxID {
				maxID = id
			}
		}
		return true
	})
	doc := xmldom.NewDocument(name)
	doc.EnsureNextID(xmldom.NodeID(maxID))
	root, err := rebuildRef(doc, parsed.Root())
	if err != nil {
		return nil, err
	}
	if err := doc.SetRoot(root); err != nil {
		return nil, err
	}
	return doc, nil
}

// assembleDocumentRef is the former AssembleDocument: restore the spine,
// parse every fragment, then rebuild them in (Parent, Pos) order.
func assembleDocumentRef(name, spine string, frags []*Fragment) (*xmldom.Document, error) {
	doc, err := restoreDocRef(name, spine)
	if err != nil {
		return nil, err
	}
	parsed := make([]*xmldom.Document, len(frags))
	for i, f := range frags {
		if parsed[i], err = xmldom.ParseString(string(f.ID), f.XML); err != nil {
			return nil, err
		}
	}
	order := make([]int, len(frags))
	for i := range order {
		order[i] = i
	}
	sortFragOrder(order, frags)
	for _, i := range order {
		f := frags[i]
		parent := doc.ByID(f.Parent)
		if parent == nil {
			return nil, fmt.Errorf("parent %d not in spine", f.Parent)
		}
		sub, err := rebuildRef(doc, parsed[i].Root())
		if err != nil {
			return nil, err
		}
		pos := f.Pos
		if n := parent.ChildCount(); pos > n {
			pos = n
		}
		if err := doc.InsertChild(parent, sub, pos); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

func sortFragOrder(order []int, frags []*Fragment) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := frags[order[j-1]], frags[order[j]]
			if a.Parent < b.Parent || a.Parent == b.Parent && a.Pos <= b.Pos {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
}

// dumpIDs renders a subtree with its node IDs.
func dumpIDs(n *xmldom.Node) string {
	var b strings.Builder
	n.Walk(func(m *xmldom.Node) bool {
		fmt.Fprintf(&b, "%d:%s:%s:%q%v|%d;", m.ID(), m.Kind(), m.Name(), m.Text(), m.Attrs(), m.ChildCount())
		return true
	})
	return b.String()
}

// docState renders everything observable about a document's IDs: the tree,
// every indexed node up to the allocator, and the next ID it hands out.
// It allocates that ID, so call it once per document.
func docState(doc *xmldom.Document) string {
	var b strings.Builder
	if doc.Root() != nil {
		b.WriteString(dumpIDs(doc.Root()))
	}
	next := doc.CreateComment("").ID()
	for id := xmldom.NodeID(1); id < next; id++ {
		if n := doc.ByID(id); n != nil {
			fmt.Fprintf(&b, " %d=%s:%s", id, n.Kind(), n.Name())
		}
	}
	fmt.Fprintf(&b, " next=%d", next)
	return b.String()
}

func TestParseFragmentsMatchesWrapperAndAdopt(t *testing.T) {
	const host = `<host><x/>text<!--c--></host>`
	for _, data := range []string{
		`<a/>`,
		`<a x="1"><b>t</b></a><c/>`,
		`lead<a/>tail`,
		`<!--note--><a/>`,
		"\n  <a/>\n  <b/>\n",
		`<a/><![CDATA[x]]>&amp;`,
		`<axml:sc methodName="m"><axml:params/></axml:sc>`,
		`<p:a xmlns:p="http://activexml.net"/>`,
		`<?xml version="1.0"?><a/>`,
		`<?xml version="1.1"?><a/>`,
		`</frag><frag>`,
		`<a/></frag><frag><b/>`,
		`<a/></frag>`,
		`</frag>`,
		`<frag>`,
		`<frag></frag>`,
		`x</frag>y`,
		``,
		`   `,
		`<!--only a comment-->`,
		`<a>`,
		`<a></b>`,
		`<a/>&bogus;`,
		`<a x='</frag>'/>`,
		`<![CDATA[</frag>]]>`,
		`<!-- </frag> -->`,
	} {
		gdoc, wdoc := xmldom.MustParse("d", host), xmldom.MustParse("d", host)
		got, gerr := parseFragments(gdoc, data)
		want, werr := parseFragmentsRef(wdoc, data)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("parseFragments(%q): err = %v, reference err = %v", data, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("parseFragments(%q): %d nodes, reference %d", data, len(got), len(want))
		}
		for i := range got {
			if g, w := dumpIDs(got[i]), dumpIDs(want[i]); g != w {
				t.Fatalf("parseFragments(%q) node %d:\n%s\nreference\n%s", data, i, g, w)
			}
		}
		if g, w := docState(gdoc), docState(wdoc); g != w {
			t.Fatalf("parseFragments(%q) destination:\n%s\nreference\n%s", data, g, w)
		}
	}
}

func TestRestoreAndAssembleMatchRebuild(t *testing.T) {
	for _, raw := range []string{
		`<r axml:nodeid="1"><a axml:nodeid="5">t</a><b/><!--c--><d axml:nodeid="2"/></r>`,
		`<r><a/>text</r>`,
		`<r axml:nodeid="3" x="1" axml:nodeid="4"/>`,
		`<r axml:nodeid="2"><a axml:nodeid="2"/></r>`,
		`<r axml:nodeid="x"/>`,
		`<r axml:nodeid="0"/>`,
		`<r xmlns:ax="http://activexml.net" ax:nodeid="9"><c/></r>`,
	} {
		got, gerr := restoreDoc("d", raw)
		want, werr := restoreDocRef("d", raw)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("restoreDoc(%q): err = %v, reference err = %v", raw, gerr, werr)
		}
		if gerr == nil {
			if g, w := docState(got), docState(want); g != w {
				t.Fatalf("restoreDoc(%q):\n%s\nreference\n%s", raw, g, w)
			}
		}
	}

	// A sharded league, spine and fragments as SplitDocument writes them,
	// assembled whole and with fragments out of order.
	s := shardStore(t)
	ref, _ := s.Snapshot("league.xml")
	spine, frags, err := SplitDocument(ref, 4)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]*Fragment, len(frags))
	for i, f := range frags {
		reversed[len(frags)-1-i] = f
	}
	bad := frags[0].Clone()
	bad.XML = strings.Replace(bad.XML, "<name", "<name axml:nodeid=\"1\"", 1)
	for name, set := range map[string][]*Fragment{
		"whole":         frags,
		"reversed":      reversed,
		"none":          nil,
		"ID collision":  {bad, frags[1]},
		"missing frag":  frags[1:],
		"doubled frag":  {frags[0], frags[0]},
		"unparseable":   {{ID: "x", Parent: frags[0].Parent, XML: "<player>"}},
		"orphan parent": {{ID: "x", Parent: 999, XML: "<player/>"}},
	} {
		got, gerr := AssembleDocument("league.xml", spine, set)
		want, werr := assembleDocumentRef("league.xml", spine, set)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: err = %v, reference err = %v", name, gerr, werr)
		}
		if gerr == nil {
			if g, w := docState(got), docState(want); g != w {
				t.Fatalf("%s:\n%s\nreference\n%s", name, g, w)
			}
		}
	}
}
