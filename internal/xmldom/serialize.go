package xmldom

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Serialize writes the subtree rooted at n as XML to w. Attribute and child
// order are preserved; text is escaped. No insignificant whitespace is
// added, so Serialize∘Parse is the identity on canonical trees.
func Serialize(w io.Writer, n *Node) error {
	sw := &stickyWriter{w: w}
	writeNode(sw, n)
	return sw.err
}

// serializeBufs recycles the scratch buffers behind MarshalString: logging
// and wire encoding serialize subtrees constantly, and regrowing a builder
// from zero for every record is pure allocator churn.
var serializeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBufCap bounds the capacity of buffers returned to the pool, so
// one giant document doesn't pin its worth of memory forever.
const maxPooledBufCap = 1 << 16

// MarshalString returns the subtree rooted at n as an XML string.
func MarshalString(n *Node) string {
	buf := serializeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	// bytes.Buffer never fails, so the error is always nil.
	_ = Serialize(buf, n)
	out := buf.String()
	if buf.Cap() <= maxPooledBufCap {
		serializeBufs.Put(buf)
	}
	return out
}

// MarshalIndent returns the subtree pretty-printed with the given indent,
// for human-facing output (examples, CLI). Indented output inserts
// whitespace text nodes on re-parse, which Equal ignores.
func MarshalIndent(n *Node, indent string) string {
	var b strings.Builder
	writeIndented(&b, n, indent, 0)
	return b.String()
}

// header is the XML declaration DocumentString writes.
const header = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// DocumentString serializes a whole document, including the XML declaration.
func DocumentString(d *Document) string {
	if d.Root() == nil {
		return header
	}
	return header + MarshalString(d.Root())
}

type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) WriteString(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

// writeEscaped streams str through esc directly into the underlying writer,
// allocating nothing when str contains none of chars (the common case for
// element text and attribute values).
func (s *stickyWriter) writeEscaped(str string, esc *strings.Replacer, chars string) {
	if s.err != nil {
		return
	}
	if !strings.ContainsAny(str, chars) {
		_, s.err = io.WriteString(s.w, str)
		return
	}
	_, s.err = esc.WriteString(s.w, str)
}

func writeNode(w *stickyWriter, n *Node) {
	switch n.kind {
	case TextNode:
		w.writeEscaped(n.text, textEscaper, textEscapeChars)
	case CommentNode:
		w.WriteString("<!--")
		w.WriteString(n.text)
		w.WriteString("-->")
	case ElementNode:
		w.WriteString("<")
		w.WriteString(n.name)
		for _, a := range n.attrs {
			w.WriteString(" ")
			w.WriteString(a.Name)
			w.WriteString(`="`)
			w.writeEscaped(a.Value, attrEscaper, attrEscapeChars)
			w.WriteString(`"`)
		}
		if len(n.children) == 0 {
			w.WriteString("/>")
			return
		}
		w.WriteString(">")
		for _, c := range n.children {
			writeNode(w, c)
		}
		w.WriteString("</")
		w.WriteString(n.name)
		w.WriteString(">")
	}
}

func writeIndented(b *strings.Builder, n *Node, indent string, depth int) {
	pad := strings.Repeat(indent, depth)
	switch n.kind {
	case TextNode:
		if t := strings.TrimSpace(n.text); t != "" {
			b.WriteString(pad)
			b.WriteString(escapeText(t))
			b.WriteString("\n")
		}
	case CommentNode:
		b.WriteString(pad)
		b.WriteString("<!--")
		b.WriteString(n.text)
		b.WriteString("-->\n")
	case ElementNode:
		b.WriteString(pad)
		b.WriteString("<")
		b.WriteString(n.name)
		for _, a := range n.attrs {
			fmt.Fprintf(b, ` %s=%q`, a.Name, a.Value)
		}
		onlyText := true
		for _, c := range n.children {
			if c.kind != TextNode {
				onlyText = false
				break
			}
		}
		switch {
		case len(n.children) == 0:
			b.WriteString("/>\n")
		case onlyText:
			b.WriteString(">")
			b.WriteString(escapeText(n.TextContent()))
			b.WriteString("</")
			b.WriteString(n.name)
			b.WriteString(">\n")
		default:
			b.WriteString(">\n")
			for _, c := range n.children {
				writeIndented(b, c, indent, depth+1)
			}
			b.WriteString(pad)
			b.WriteString("</")
			b.WriteString(n.name)
			b.WriteString(">\n")
		}
	}
}

const (
	textEscapeChars = "&<>"
	attrEscapeChars = "&<>\"\n\t"
)

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

var attrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;", "\t", "&#9;",
)

func escapeText(s string) string {
	if !strings.ContainsAny(s, textEscapeChars) {
		return s
	}
	return textEscaper.Replace(s)
}

func escapeAttr(s string) string {
	if !strings.ContainsAny(s, attrEscapeChars) {
		return s
	}
	return attrEscaper.Replace(s)
}
