package xmldom

import (
	"strings"
	"testing"
)

func buildPlayer(t *testing.T) (*Document, *Node) {
	t.Helper()
	doc := NewDocument("ATPList.xml")
	root := Build(doc, "ATPList").Attr("date", "18042005").Node()
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	player := Build(doc, "player").Attr("rank", "1").Node()
	name := player.doc.CreateElement("name")
	if err := doc.AppendChild(player, name); err != nil {
		t.Fatal(err)
	}
	first := doc.CreateElement("firstname")
	if err := doc.AppendChild(name, first); err != nil {
		t.Fatal(err)
	}
	if err := doc.AppendChild(first, doc.CreateText("Roger")); err != nil {
		t.Fatal(err)
	}
	if err := doc.AppendChild(root, player); err != nil {
		t.Fatal(err)
	}
	return doc, player
}

func TestCreateAndAttach(t *testing.T) {
	doc, player := buildPlayer(t)
	if doc.Root().Name() != "ATPList" {
		t.Fatalf("root name = %q", doc.Root().Name())
	}
	if player.Parent() != doc.Root() {
		t.Fatal("player not attached to root")
	}
	if got := player.FirstElement("name").FirstElement("firstname").TextContent(); got != "Roger" {
		t.Fatalf("text = %q", got)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIDsAreUniqueAndStable(t *testing.T) {
	doc, player := buildPlayer(t)
	id := player.ID()
	if doc.ByID(id) != player {
		t.Fatal("ByID lookup failed")
	}
	if _, _, err := doc.Detach(player); err != nil {
		t.Fatal(err)
	}
	if doc.ByID(id) != player {
		t.Fatal("detached node dropped from index")
	}
	if err := doc.AppendChild(doc.Root(), player); err != nil {
		t.Fatal(err)
	}
	if player.ID() != id {
		t.Fatal("ID changed across detach/attach")
	}
}

func TestInsertChildPositions(t *testing.T) {
	doc := NewDocument("d")
	root := doc.CreateElement("r")
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	a, b, c := doc.CreateElement("a"), doc.CreateElement("b"), doc.CreateElement("c")
	if err := doc.AppendChild(root, a); err != nil {
		t.Fatal(err)
	}
	if err := doc.AppendChild(root, c); err != nil {
		t.Fatal(err)
	}
	if err := doc.InsertChild(root, b, 1); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if got := root.Child(i).Name(); got != w {
			t.Fatalf("child[%d] = %q, want %q", i, got, w)
		}
	}
	if b.Index() != 1 {
		t.Fatalf("b.Index() = %d", b.Index())
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	doc := NewDocument("d")
	root := doc.CreateElement("r")
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	mid := doc.CreateElement("mid")
	if err := doc.AppendChild(root, mid); err != nil {
		t.Fatal(err)
	}
	before, after := doc.CreateElement("before"), doc.CreateElement("after")
	if err := doc.InsertBefore(mid, before); err != nil {
		t.Fatal(err)
	}
	if err := doc.InsertAfter(mid, after); err != nil {
		t.Fatal(err)
	}
	got := []string{root.Child(0).Name(), root.Child(1).Name(), root.Child(2).Name()}
	if got[0] != "before" || got[1] != "mid" || got[2] != "after" {
		t.Fatalf("order = %v", got)
	}
}

func TestInsertErrors(t *testing.T) {
	doc := NewDocument("d")
	root := doc.CreateElement("r")
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	child := doc.CreateElement("c")
	if err := doc.AppendChild(root, child); err != nil {
		t.Fatal(err)
	}

	other := NewDocument("other")
	foreign := other.CreateElement("f")
	if err := doc.AppendChild(root, foreign); err != ErrForeignNode {
		t.Fatalf("foreign append err = %v", err)
	}
	if err := doc.AppendChild(root, child); err != ErrAttached {
		t.Fatalf("double attach err = %v", err)
	}
	text := doc.CreateText("t")
	if err := doc.AppendChild(text, doc.CreateElement("x")); err != ErrNotElement {
		t.Fatalf("append under text err = %v", err)
	}
	grand := doc.CreateElement("g")
	if err := doc.AppendChild(child, grand); err != nil {
		t.Fatal(err)
	}
	if _, _, err := doc.Detach(child); err != nil {
		t.Fatal(err)
	}
	if err := doc.AppendChild(grand, child); err != ErrCycle {
		t.Fatalf("cycle err = %v", err)
	}
	if err := doc.InsertChild(root, doc.CreateElement("y"), 99); err != ErrBadPosition {
		t.Fatalf("bad position err = %v", err)
	}
}

func TestDetachAndReattachPreservesSubtree(t *testing.T) {
	doc, player := buildPlayer(t)
	snapshot := MarshalString(player)
	parent, pos, err := doc.Detach(player)
	if err != nil {
		t.Fatal(err)
	}
	if parent != doc.Root() || pos != 0 {
		t.Fatalf("parent/pos = %v/%d", parent, pos)
	}
	if err := doc.InsertChild(parent, player, pos); err != nil {
		t.Fatal(err)
	}
	if got := MarshalString(player); got != snapshot {
		t.Fatalf("subtree changed:\n%s\n%s", got, snapshot)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDropsIndexEntries(t *testing.T) {
	doc, player := buildPlayer(t)
	var ids []NodeID
	player.Walk(func(n *Node) bool { ids = append(ids, n.ID()); return true })
	if err := doc.Remove(player); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if doc.ByID(id) != nil {
			t.Fatalf("node %d still indexed after Remove", id)
		}
	}
}

func TestDetachRootEmptiesDocument(t *testing.T) {
	doc, _ := buildPlayer(t)
	root := doc.Root()
	if _, _, err := doc.Detach(root); err != nil {
		t.Fatal(err)
	}
	if doc.Root() != nil {
		t.Fatal("root still set")
	}
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
}

func TestCloneDocumentPreservesIDs(t *testing.T) {
	doc, player := buildPlayer(t)
	cp := doc.Clone()
	if !cp.Equal(doc) {
		t.Fatal("clone not equal")
	}
	if cp.ByID(player.ID()) == nil {
		t.Fatal("clone lost node ID")
	}
	if cp.ByID(player.ID()) == player {
		t.Fatal("clone shares nodes with original")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAttrOperations(t *testing.T) {
	doc := NewDocument("d")
	el := doc.CreateElement("e")
	el.SetAttr("a", "1")
	el.SetAttr("b", "2")
	el.SetAttr("a", "3") // replace in place
	if v, ok := el.Attr("a"); !ok || v != "3" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if el.Attrs()[0].Name != "a" {
		t.Fatal("replace changed attribute position")
	}
	if el.AttrDefault("missing", "def") != "def" {
		t.Fatal("AttrDefault")
	}
	if !el.RemoveAttr("b") || el.RemoveAttr("b") {
		t.Fatal("RemoveAttr")
	}
}

func TestNodeHelpers(t *testing.T) {
	doc, player := buildPlayer(t)
	if !doc.Root().IsAncestorOf(player) {
		t.Fatal("IsAncestorOf false for root")
	}
	if player.IsAncestorOf(doc.Root()) {
		t.Fatal("IsAncestorOf true for child")
	}
	if player.SubtreeSize() != 4 { // player, name, firstname, text
		t.Fatalf("SubtreeSize = %d", player.SubtreeSize())
	}
	if !strings.Contains(player.Path(), "/ATPList/player[0]") {
		t.Fatalf("Path = %q", player.Path())
	}
	if player.LocalName() != "player" {
		t.Fatal("LocalName")
	}
	sc := doc.CreateElement("axml:sc")
	if sc.LocalName() != "sc" {
		t.Fatalf("LocalName with prefix = %q", sc.LocalName())
	}
}

func TestEqualIgnoresAttrOrderAndComments(t *testing.T) {
	a := MustParse("a", `<r x="1" y="2"><c/></r>`)
	b := MustParse("b", `<r y="2" x="1"><!--note--><c/></r>`)
	if !a.Equal(b) {
		t.Fatal("documents should be equal")
	}
	c := MustParse("c", `<r x="1" y="2"><c/><c/></r>`)
	if a.Equal(c) {
		t.Fatal("different child counts reported equal")
	}
	d := MustParse("d", `<r x="1" y="OTHER"><c/></r>`)
	if a.Equal(d) {
		t.Fatal("different attr values reported equal")
	}
}

func TestEqualChildOrderSignificant(t *testing.T) {
	a := MustParse("a", `<r><x/><y/></r>`)
	b := MustParse("b", `<r><y/><x/></r>`)
	if a.Equal(b) {
		t.Fatal("child order must be significant")
	}
}

func TestTextContentConcatenation(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"empty", `<r/>`, ""},
		{"one text", `<r>123</r>`, "123"},
		{"comment only", `<r><!--c--></r>`, ""},
		{"text and comment", `<r><!--c-->123</r>`, "123"},
		{"text around comment", `<r>12<!--c-->3</r>`, "123"},
		{"nested elements", `<r><a><b>L7</b></a></r>`, "L7"},
		{"mixed", `<r>Hello <b>world</b>!</r>`, "Hello world!"},
	} {
		root := MustParse("d", tc.src).Root()
		var concat strings.Builder
		root.Walk(func(n *Node) bool {
			if n.Kind() == TextNode {
				concat.WriteString(n.Text())
			}
			return true
		})
		if got := root.TextContent(); got != tc.want || got != concat.String() {
			t.Errorf("%s: TextContent = %q, want %q (concatenation %q)", tc.name, got, tc.want, concat.String())
		}
	}
	points := MustParse("d", `<points>123</points>`).Root()
	if allocs := testing.AllocsPerRun(100, func() { _ = points.TextContent() }); allocs != 0 {
		t.Fatalf("TextContent of one text child allocated %v times", allocs)
	}
}

func TestElementsAndFirstElement(t *testing.T) {
	d := MustParse("d", `<r>text<a/>more<b/><a/></r>`)
	if n := len(d.Root().Elements()); n != 3 {
		t.Fatalf("Elements = %d", n)
	}
	if d.Root().FirstElement("b") == nil || d.Root().FirstElement("zz") != nil {
		t.Fatal("FirstElement")
	}
}

func TestWalkPruning(t *testing.T) {
	d := MustParse("d", `<r><skip><deep/></skip><keep/></r>`)
	var visited []string
	d.Root().Walk(func(n *Node) bool {
		if n.Kind() == ElementNode {
			visited = append(visited, n.Name())
		}
		return n.Name() != "skip"
	})
	for _, v := range visited {
		if v == "deep" {
			t.Fatal("walk did not prune below skip")
		}
	}
	if len(visited) != 3 {
		t.Fatalf("visited = %v", visited)
	}
}
