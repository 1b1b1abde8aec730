package xmldom

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		ElementNode: "element", TextNode: "text", CommentNode: "comment", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q", k, got)
		}
	}
}

func TestSetTextOnElementPanics(t *testing.T) {
	doc := NewDocument("d")
	el := doc.CreateElement("e")
	defer func() {
		if recover() == nil {
			t.Fatal("SetText on element did not panic")
		}
	}()
	el.SetText("x")
}

func TestSetTextOnTextNode(t *testing.T) {
	doc := NewDocument("d")
	n := doc.CreateText("old")
	n.SetText("new")
	if n.Text() != "new" {
		t.Fatal("SetText")
	}
}

func TestSetRootErrors(t *testing.T) {
	doc := NewDocument("d")
	root := doc.CreateElement("r")
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	if err := doc.SetRoot(doc.CreateElement("r2")); err != ErrHasRoot {
		t.Fatalf("second root err = %v", err)
	}
	other := NewDocument("o")
	empty := NewDocument("e")
	if err := empty.SetRoot(other.CreateElement("x")); err != ErrForeignNode {
		t.Fatalf("foreign root err = %v", err)
	}
	// Attached node cannot become a root.
	child := doc.CreateElement("c")
	if err := doc.AppendChild(root, child); err != nil {
		t.Fatal(err)
	}
	if _, _, err := doc.Detach(root); err != nil {
		t.Fatal(err)
	}
	if err := doc.SetRoot(child); err != ErrAttached {
		t.Fatalf("attached root err = %v", err)
	}
}

func TestDetachErrors(t *testing.T) {
	doc := NewDocument("d")
	root := doc.CreateElement("r")
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	other := NewDocument("o")
	if _, _, err := doc.Detach(other.CreateElement("x")); err != ErrForeignNode {
		t.Fatalf("foreign detach err = %v", err)
	}
	loose := doc.CreateElement("loose")
	if _, _, err := doc.Detach(loose); err != ErrDetached {
		t.Fatalf("detached detach err = %v", err)
	}
	if err := doc.Remove(loose); err != ErrDetached {
		t.Fatalf("remove detached err = %v", err)
	}
}

func TestNodeCountAndByIDMisses(t *testing.T) {
	doc := MustParse("d", `<r><a/><b/></r>`)
	if doc.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d", doc.NodeCount())
	}
	if doc.ByID(9999) != nil {
		t.Fatal("ByID miss should be nil")
	}
	empty := NewDocument("e")
	if empty.NodeCount() != 0 {
		t.Fatal("empty NodeCount")
	}
}

func TestPathForTextNode(t *testing.T) {
	doc := MustParse("d", `<r>hello</r>`)
	text := doc.Root().Child(0)
	if p := text.Path(); !strings.Contains(p, "#text") {
		t.Fatalf("Path = %q", p)
	}
}

func TestChildOutOfRange(t *testing.T) {
	doc := MustParse("d", `<r><a/></r>`)
	if doc.Root().Child(-1) != nil || doc.Root().Child(5) != nil {
		t.Fatal("out-of-range Child should be nil")
	}
	if doc.Root().Index() != -1 {
		t.Fatal("root Index should be -1")
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	doc := NewDocument("d")
	b := Build(doc, "root")
	defer func() {
		if recover() == nil {
			t.Fatal("Up above root did not panic")
		}
	}()
	b.Up()
}

func TestBuilderFluentTree(t *testing.T) {
	doc := NewDocument("d")
	n := Build(doc, "order").
		Attr("id", "7").
		Leaf("customer", "Serge").
		Child("items").
		Leaf("item", "XML book").
		Up().
		Text("trailing").
		Node()
	if err := doc.SetRoot(n); err != nil {
		t.Fatal(err)
	}
	s := MarshalString(n)
	for _, want := range []string{`id="7"`, "<customer>Serge</customer>", "<item>XML book</item>", "trailing"} {
		if !strings.Contains(s, want) {
			t.Fatalf("built tree %q missing %q", s, want)
		}
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalIndentMixedContent(t *testing.T) {
	doc := MustParse("d", `<r><only-text>abc</only-text><mixed>t<e/></mixed><!--c--></r>`)
	out := MarshalIndent(doc.Root(), "  ")
	if !strings.Contains(out, "<only-text>abc</only-text>") {
		t.Fatalf("text-only element broken:\n%s", out)
	}
	if !strings.Contains(out, "<!--c-->") {
		t.Fatalf("comment lost:\n%s", out)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	doc := MustParse("d", `<r><a/></r>`)
	// Corrupt the parent link directly (white-box).
	a := doc.Root().FirstElement("a")
	a.parent = nil
	if err := doc.Validate(); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestEqualNilCases(t *testing.T) {
	doc := MustParse("d", `<r/>`)
	var nilNode *Node
	if !nilNode.Equal(nil) {
		t.Fatal("nil == nil")
	}
	if doc.Root().Equal(nil) || nilNode.Equal(doc.Root()) {
		t.Fatal("nil vs node")
	}
	empty1, empty2 := NewDocument("a"), NewDocument("b")
	if !empty1.Equal(empty2) {
		t.Fatal("two empty documents should be equal")
	}
	if empty1.Equal(doc) {
		t.Fatal("empty vs non-empty")
	}
}
