package xmldom

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

// parseSeeds covers every rule parse.go lists; FuzzParseMatchesReference
// starts from them and TestParseMatchesReferenceOnSeeds runs them always.
var parseSeeds = []string{
	`<r/>`,
	`<ATPList date="18042005"><player rank="1"><name>Roger</name></player></ATPList>`,
	`<r><axml:sc mode="replace"><axml:params/></axml:sc></r>`,
	`<a>text<!--comment--><b x="1&amp;2"/></a>`,
	`<r>`,
	`<<>>`,
	`<a xmlns:axml="http://activexml.net"><axml:sc/></a>`,
	`<a xmlns="http://activexml.net/ns"><b x="1"/></a>`,
	`<a xmlns:p="http://example.com" p:x="1"><p:b/></a>`,
	`<a xmlns:p="urn" p:x="1"><p:b/></a>`,
	`<a xmlns:p="" p:x="1"><p:b/></a>`,
	`<a xmlns="" xml:lang="en"><xml:b/></a>`,
	`<a q:x="1" xmlns:q="http://activexml.org"><q:b/></a><!--after-->`,
	`<a><b xmlns:p="x"/><p:c/></a>`,
	`<p:a></q:a>`,
	`<a:b:c/>`,
	`<:a a:="1"/>`,
	`<xmlns/>`,
	"<r>a<![CDATA[b<&]]>c<![CDATA[ ]]></r>",
	"<r>a\r\nb\rc<![CDATA[d\r\ne]]><!--f\r\ng--></r>",
	"<r x='a\r\nb&#13;c\td'/>",
	`<r>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#xD800;</r>`,
	`<r>&#0;</r>`,
	`<r>&#X41;</r>`,
	`<r>&nbsp;</r>`,
	`<r>&amp</r>`,
	`<r>&#x110000;</r>`,
	"<r>\x01</r>",
	"<r>\ufffe</r>",
	"<r>\xff</r>",
	"<r><!--\x01\xff--></r>",
	`<r>]]></r>`,
	`<r a="]]>"/>`,
	`<r a="<"/>`,
	`<r a=1/>`,
	`<r a/>`,
	`<r a="1"b="2" a="3"/>`,
	`<?xml version="1.0" encoding="UTF-8"?><r/>`,
	`<?xml version="1.1"?><r/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><r/>`,
	`<?xml encoding='utf-8'?><r><?xml version="2.0"?></r>`,
	`<?pi some data?><r><?pi?></r>`,
	`<!DOCTYPE r [<!ENTITY x "y>"><!-- c > -->]><r/>`,
	`<!DOCTYPE r <x> ><r/>`,
	`<r/><r/>`,
	`<r/>text after`,
	`</r>`,
	`<r></r></r>`,
	"\ufeff<r/>",
	"<école a·b='1'><a·b/></école>",
	"<·a/>",
	"<\u0218/>",
	`<r><!-- a -- b --></r>`,
	`<r><!---></r>`,
	`<r><!----></r>`,
	`<r><![CDAT[x]]></r>`,
	`<r><!-x--></r>`,
	`<r>` + " " + `</r>`,
	`<r axml:nodeid="7"><a axml:nodeid="3">t</a><b/></r>`,
	`<r axml:nodeid="2"><a axml:nodeid="2"/></r>`,
	`<r axml:nodeid="x"/>`,
	`<r axml:nodeid="0"/>`,
	`<r xmlns:ax="http://activexml.net" ax:nodeid="9"><c/></r>`,
}

func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkAgainstReference(t, src)
	})
}

func TestParseMatchesReferenceOnSeeds(t *testing.T) {
	for _, s := range parseSeeds {
		checkAgainstReference(t, s)
		// As data payloads the seeds also exercise content mode deeper.
		checkAgainstReference(t, "<w>"+s+"</w>")
	}
}

const testIDAttr = "axml:nodeid"

// checkAgainstReference runs every entry point and its reference on src:
// both must accept or both reject, and accepted input must give the same
// tree, IDs, ID allocator and index.
func checkAgainstReference(t *testing.T, src string) {
	t.Helper()
	got, gerr := ParseString("d", src)
	want, werr := parseRefString("d", src)
	compareDocs(t, "ParseString", src, got, gerr, want, werr)

	got, gerr = RestoreString("d", src, testIDAttr)
	want, werr = restoreRef("d", src, testIDAttr)
	compareDocs(t, "RestoreString", src, got, gerr, want, werr)

	const host = `<host><x/>text</host>`
	gdst, wdst := MustParse("h", host), MustParse("h", host)
	gn, gerr := ParseFragment(gdst, src)
	wn, werr := parseFragmentRef(wdst, src)
	compareInto(t, "ParseFragment", src, []*Node{gn}, gerr, []*Node{wn}, werr, gdst, wdst)

	gdst, wdst = MustParse("h", host), MustParse("h", host)
	gs, gerr := ParseContent(gdst, src)
	ws, werr := parseContentRef(wdst, src)
	compareInto(t, "ParseContent", src, gs, gerr, ws, werr, gdst, wdst)

	gdst, wdst = MustParse("h", `<host axml:nodeid="5"/>`), MustParse("h", `<host axml:nodeid="5"/>`)
	gn, gerr = RestoreFragment(gdst, src, testIDAttr)
	wn, werr = restoreFragmentRef(wdst, src, testIDAttr)
	if werr != nil {
		// The reference left a half-built copy behind; the scanner must not.
		wdst = MustParse("h", `<host axml:nodeid="5"/>`)
	}
	compareInto(t, "RestoreFragment", src, []*Node{gn}, gerr, []*Node{wn}, werr, gdst, wdst)
}

func compareDocs(t *testing.T, what, src string, got *Document, gerr error, want *Document, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s(%q): err = %v, reference err = %v", what, src, gerr, werr)
	}
	if gerr == nil {
		if d := sameDoc(got, want); d != "" {
			t.Fatalf("%s(%q): %s", what, src, d)
		}
	}
}

// compareInto compares parses into a destination document: the returned
// nodes and, accepted or not, the destination's index and allocator.
func compareInto(t *testing.T, what, src string, got []*Node, gerr error, want []*Node, werr error, gdst, wdst *Document) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s(%q): err = %v, reference err = %v", what, src, gerr, werr)
	}
	if gerr == nil {
		if len(got) != len(want) {
			t.Fatalf("%s(%q): %d nodes, reference %d", what, src, len(got), len(want))
		}
		for i := range got {
			if d := sameNode(got[i], want[i]); d != "" {
				t.Fatalf("%s(%q): node %d: %s", what, src, i, d)
			}
			if got[i].parent != nil {
				t.Fatalf("%s(%q): node %d not detached", what, src, i)
			}
		}
	}
	if d := sameDoc(gdst, wdst); d != "" {
		t.Fatalf("%s(%q): destination: %s", what, src, d)
	}
}

// dump renders a subtree with IDs for the table tests:
// id:name[attr=value ...](children), id:"text", id:<!--comment-->.
func dump(n *Node) string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(n *Node) {
		switch n.kind {
		case TextNode:
			fmt.Fprintf(&b, "%d:%q", n.id, n.text)
		case CommentNode:
			fmt.Fprintf(&b, "%d:<!--%s-->", n.id, n.text)
		case ElementNode:
			fmt.Fprintf(&b, "%d:%s", n.id, n.name)
			if len(n.attrs) > 0 {
				b.WriteString("[")
				for i, a := range n.attrs {
					if i > 0 {
						b.WriteString(" ")
					}
					fmt.Fprintf(&b, "%s=%q", a.Name, a.Value)
				}
				b.WriteString("]")
			}
			if len(n.children) > 0 {
				b.WriteString("(")
				for i, c := range n.children {
					if i > 0 {
						b.WriteString(" ")
					}
					walk(c)
				}
				b.WriteString(")")
			}
		}
	}
	walk(n)
	return b.String()
}

// TestParseQuirks pins each behaviour the scanner keeps from encoding/xml,
// on the scanner and on the reference alike. want is the dump of the root,
// or "" when the input must be rejected.
func TestParseQuirks(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		// Namespaces, as qualName documents.
		{"unbound prefix kept", `<axml:sc><p:x/></axml:sc>`, `1:axml:sc(2:p:x)`},
		{"AXML URL prefix", `<a xmlns:ax="http://activexml.net"><ax:sc/></a>`, `1:a[xmlns:ax="http://activexml.net"](2:axml:sc)`},
		{"AXML default namespace", `<a xmlns="http://www.activexml.org/ns"><b c="1"/></a>`, `1:axml:a[xmlns="http://www.activexml.org/ns"](2:axml:b[c="1"])`},
		{"other URL drops prefix", `<p:a xmlns:p="http://example.com" p:x="1"/>`, `1:a[xmlns:p="http://example.com" x="1"]`},
		{"non-URL binding replaces prefix", `<p:a xmlns:p="urn" p:x="1"/>`, `1:urn:a[xmlns:p="urn" urn:x="1"]`},
		{"non-URL default namespace", `<a xmlns="urn"><b/></a>`, `1:urn:a[xmlns="urn"](2:urn:b)`},
		{"empty binding drops prefix", `<p:a xmlns:p=""/>`, `1:a[xmlns:p=""]`},
		{"declaration after use applies", `<p:a p:x="1" xmlns:p="http://e.org/"/>`, `1:a[x="1" xmlns:p="http://e.org/"]`},
		{"scope ends with element", `<a><b xmlns:p="http://e.org/"><p:c/></b><p:c/></a>`, `1:a(2:b[xmlns:p="http://e.org/"](3:c) 4:p:c)`},
		{"xml prefix keeps local name", `<a xml:lang="en"><xml:b/></a>`, `1:a[lang="en"](2:b)`},
		{"colon at edge is no prefix", `<:a b:="1"/>`, `1::a[b:="1"]`},
		{"element named xmlns", `<xmlns xmlns="http://e.org/"/>`, `1:xmlns[xmlns="http://e.org/"]`},
		{"two colons", `<a:b:c/>`, ``},
		{"end tag must repeat prefix", `<p:a xmlns:p="http://e.org/"></a>`, ``},
		// CDATA and comment splits.
		{"CDATA splits text", `<r>a<![CDATA[<b&>]]>c</r>`, `1:r(2:"a" 3:"<b&>" 4:"c")`},
		{"whitespace CDATA dropped", "<r><![CDATA[ \n]]><a/></r>", `1:r(2:a)`},
		{"comment splits text", `<r>a<!--x-->b</r>`, `1:r(2:"a" 3:<!--x--> 4:"b")`},
		{"comment ends at first --", `<r><!-- a -- b --></r>`, ``},
		{"empty comment", `<r><!----></r>`, `1:r(2:<!---->)`},
		{"comment keeps raw bytes", "<r><!--\r\n\x01--></r>", "1:r(2:<!--\r\n\x01-->)"},
		// Line ends.
		{"CRLF and CR fold in text", "<r>a\r\nb\rc</r>", `1:r(2:"a\nb\nc")`},
		{"CRLF folds in attributes and CDATA", "<r x='1\r\n2'><![CDATA[3\r4]]></r>", `1:r[x="1\n2"](2:"3\n4")`},
		{"character reference CR kept", `<r>a&#13;&#10;b</r>`, `1:r(2:"a\r\nb")`},
		{"whitespace in attributes kept", "<r x='\ta\nb'/>", `1:r[x="\ta\nb"]`},
		// Entities.
		{"predefined and character references", `<r>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x4a;</r>`, `1:r(2:"<>&'\"ABJ")`},
		{"surrogate reference becomes U+FFFD", `<r>&#xD800;</r>`, `1:r(2:"�")`},
		{"unknown entity", `<r>&nbsp;</r>`, ``},
		{"entity without semicolon", `<r>&amp x</r>`, ``},
		{"uppercase X reference", `<r>&#X41;</r>`, ``},
		{"empty reference", `<r>&#;</r>`, ``},
		{"reference beyond Unicode", `<r>&#x110000;</r>`, ``},
		{"reference to NUL", `<r>&#0;</r>`, ``},
		// Character range.
		{"control character", "<r>\x01</r>", ``},
		{"U+FFFE", "<r>\ufffe</r>", ``},
		{"invalid UTF-8", "<r>\xff</r>", ``},
		{"invalid UTF-8 after root", "<r/>\xff", ``},
		{"non-breaking space is whitespace", "<r> <a/></r>", `1:r(2:a)`},
		{"]]> in text", `<r>]]></r>`, ``},
		{"]]> in attribute", `<r a="]]>"/>`, `1:r[a="]]>"]`},
		{"< in attribute", `<r a="<"/>`, ``},
		// Declarations, instructions, directives.
		{"XML declaration", `<?xml version="1.0" encoding="utf-8"?><r/>`, `1:r`},
		{"unsupported version", `<?xml version="1.1"?><r/>`, ``},
		{"unsupported encoding", `<?xml version="1.0" encoding="ISO-8859-1"?><r/>`, ``},
		{"declaration checked anywhere", `<r><?xml version="2.0"?></r>`, ``},
		{"other instructions skipped", `<?pi x?><r><?pi?>t</r>`, `1:r(2:"t")`},
		{"directive with nesting and comment", `<!DOCTYPE r [<!ENTITY x "y>"><!-- > -->]><r/>`, `1:r`},
		// Attributes.
		{"attributes need no space between", `<r a="1"b='2'/>`, `1:r[a="1" b="2"]`},
		{"duplicate attribute keeps first place", `<r a="1" b="2" a="3"/>`, `1:r[a="3" b="2"]`},
		{"unquoted attribute", `<r a=1/>`, ``},
		{"attribute without value", `<r a/>`, ``},
		// Names.
		{"non-ASCII names", "<école a·b='1'><δ/></école>", "1:école[a·b=\"1\"](2:δ)"},
		{"combining mark cannot start a name", "<·a/>", ``},
		{"letter outside Appendix B", "<\u0218/>", ``},
		{"digit cannot start a name", "<1a/>", ``},
		// Document shape.
		{"two roots", `<a/><b/>`, ``},
		{"text after the root", "<r/>tail", `1:r`},
		{"comment outside the root", "<!--c--><r/><!--d-->", `1:r`},
		{"byte order mark", "\ufeff<r/>", `1:r`},
		{"no root", "<!--c-->", ``},
		{"unclosed root", "<r>", ``},
		{"stray end tag", "<r/></r>", ``},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []struct {
				name  string
				parse func(string, string) (*Document, error)
			}{{"scanner", ParseString}, {"reference", parseRefString}} {
				doc, err := p.parse("t", tc.src)
				switch {
				case tc.want == "" && err == nil:
					t.Fatalf("%s accepted %q: %s", p.name, tc.src, dump(doc.root))
				case tc.want != "" && err != nil:
					t.Fatalf("%s rejected %q: %v", p.name, tc.src, err)
				case tc.want != "" && dump(doc.root) != tc.want:
					t.Fatalf("%s(%q) =\n%s\nwant\n%s", p.name, tc.src, dump(doc.root), tc.want)
				}
			}
		})
	}
}

// TestRestoreIDs pins the two persisted-ID rules: a restored document
// numbers unpersisted nodes above the highest persisted ID, in document
// order; a restored fragment takes its destination's next IDs in creation
// order, persisted IDs advancing the allocator as they come.
func TestRestoreIDs(t *testing.T) {
	src := `<r><a axml:nodeid="7">t</a><b/><c axml:nodeid="3"/></r>`
	doc, err := RestoreString("d", src, testIDAttr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dump(doc.root), `8:r(7:a(9:"t") 10:b 3:c)`; got != want {
		t.Fatalf("restored %s, want %s", got, want)
	}
	if doc.nextID != 10 {
		t.Fatalf("nextID = %d, want 10", doc.nextID)
	}

	dst := MustParse("d", `<host/>`) // nextID 1
	n, err := RestoreFragment(dst, src, testIDAttr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dump(n), `2:r(7:a(8:"t") 9:b 3:c)`; got != want {
		t.Fatalf("fragment %s, want %s", got, want)
	}
	for _, bad := range []string{
		`<r axml:nodeid="x"/>`,
		`<r axml:nodeid="0"/>`,
		`<r axml:nodeid="4"><a axml:nodeid="4"/></r>`,
	} {
		if _, err := RestoreString("d", bad, testIDAttr); err == nil {
			t.Errorf("RestoreString(%q) accepted", bad)
		}
	}
	if _, err := RestoreFragment(dst, `<a axml:nodeid="7"/>`, testIDAttr); err == nil {
		t.Error("RestoreFragment accepted an ID already in the destination")
	}
}

// TestParseFailureLeavesDestinationUntouched: a rejected fragment or data
// payload leaves no node in the destination's index and its allocator
// where it was, however far the parse got.
func TestParseFailureLeavesDestinationUntouched(t *testing.T) {
	fragment := func(d *Document, s string) error { _, err := ParseFragment(d, s); return err }
	content := func(d *Document, s string) error { _, err := ParseContent(d, s); return err }
	restore := func(d *Document, s string) error { _, err := RestoreFragment(d, s, testIDAttr); return err }
	for _, tc := range []struct {
		name  string
		parse func(*Document, string) error
		src   string
	}{
		{"fragment unclosed", fragment, `<a><b>text</b><c/>`},
		{"fragment second root", fragment, `<a><b/></a><second/>`},
		{"fragment bad entity", fragment, `<a><b>x</b><b>&bogus;</b></a>`},
		{"content unclosed", content, `<a/>text<b><c/>`},
		{"content closes wrapper", content, `<a/></frag><frag><b/>`},
		{"content bad entity", content, `<a>x</a><b>&bogus;</b>`},
		{"restore ID in use", restore, `<a><b>t</b><c axml:nodeid="1"/></a>`},
		{"restore bad ID", restore, `<a axml:nodeid="9"><b axml:nodeid="x"/></a>`},
	} {
		dst := MustParse("d", `<r><x/>t</r>`)
		before := dst.Clone()
		if err := tc.parse(dst, tc.src); err == nil {
			t.Fatalf("%s: %q accepted", tc.name, tc.src)
		}
		if d := sameDoc(dst, before); d != "" {
			t.Fatalf("%s: destination changed: %s", tc.name, d)
		}
	}
}

// TestNameTablesMatchReference checks the name classes rune by rune
// against encoding/xml, as a first character and after one.
func TestNameTablesMatchReference(t *testing.T) {
	valid := func(s string) bool {
		_, err := xml.NewDecoder(strings.NewReader(s)).RawToken()
		return err == nil
	}
	for r := rune(0x80); r <= utf8.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		c := string(r)
		if got, want := isName(c), valid("<"+c+"/>"); got != want {
			t.Fatalf("isName(%U) = %v, reference %v", r, got, want)
		}
		if got, want := isName("a"+c), valid("<a"+c+"/>"); got != want {
			t.Fatalf("isName(a%U) = %v, reference %v", r, got, want)
		}
	}
}

// atpDoc is a players document in the shape the benchmarks use.
func atpDoc(players int) string {
	var b strings.Builder
	b.WriteString(`<ATPList date="18042005">`)
	for i := 1; i <= players; i++ {
		fmt.Fprintf(&b, `<player rank="%d"><name><firstname>F%d</firstname><lastname>L%d</lastname></name>`+
			`<citizenship>C%d</citizenship><points>%d</points></player>`, i, i, i, i%20, 100+i)
	}
	b.WriteString(`</ATPList>`)
	return b.String()
}

// TestParseAllocsPerNode bounds the parser's allocations on a 1 000-player
// document: one object per node plus amortized child-slice and index
// growth, and nothing per token.
func TestParseAllocsPerNode(t *testing.T) {
	src := atpDoc(1000)
	doc := MustParse("ATPList.xml", src)
	nodes := float64(doc.NodeCount())
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseString("ATPList.xml", src); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1.8
	if perNode := allocs / nodes; perNode > budget {
		t.Fatalf("%.0f allocs for %.0f nodes = %.2f per node, budget %.1f", allocs, nodes, perNode, budget)
	}
}
