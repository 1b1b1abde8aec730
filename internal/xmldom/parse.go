package xmldom

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The parser is a byte scanner over one private copy of its input. It
// builds nodes as it goes: no token values, no intermediate tree. It keeps
// the acceptance rules and the tree shape of encoding/xml's strict
// Decoder.Token as this package used it (parse_ref_test.go holds that
// parser and FuzzParseMatchesReference compares the two):
//
//   - names follow XML 1.0 Appendix B (names.go); a name has at most one
//     colon; an end tag must repeat its start tag's name as written;
//   - character data and attribute values fold "\r\n" and "\r" to "\n",
//     expand the five predefined entities and decimal/hex character
//     references, reject any other "&", reject characters outside the XML
//     Char range and invalid UTF-8, and reject "]]>" outside CDATA;
//   - CDATA sections and comments split the surrounding text into separate
//     nodes; whitespace-only text is dropped;
//   - comments end at the first "--", which must be followed by ">";
//   - processing instructions and directives are skipped, but an <?xml?>
//     declaration must say version 1.0 and a UTF-8 encoding if it says
//     either;
//   - prefixes resolve the way qualName documents.

// ParseString parses s as a document with the given repository name.
// Processing instructions and directives are skipped; comments are kept.
func ParseString(name, s string) (*Document, error) {
	return parseDocument(name, strings.Clone(s), "")
}

// Parse reads an XML document from r into a new Document with the given
// repository name.
func Parse(name string, r io.Reader) (*Document, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmldom: parse %s: %w", name, err)
	}
	// string(b) is already a private copy, so no second clone.
	return parseDocument(name, string(b), "")
}

// MustParse is ParseString that panics on error; for tests and literals.
func MustParse(name, s string) *Document {
	d, err := ParseString(name, s)
	if err != nil {
		panic(err)
	}
	return d
}

// RestoreString parses a checkpointed document whose elements carry their
// persisted IDs in the idAttr attribute, which is dropped from the tree.
// Nodes without one (text, comments, unnumbered elements) get fresh IDs
// above the highest persisted ID, in document order, so they can never
// collide with an element restored after them.
func RestoreString(name, s, idAttr string) (*Document, error) {
	return parseDocument(name, strings.Clone(s), idAttr)
}

func parseDocument(name, src, idAttr string) (*Document, error) {
	doc := NewDocument(name)
	p := newParser(doc, src, name)
	defer p.release()
	p.idAttr, p.deferIDs = idAttr, idAttr != ""
	if err := p.run(); err != nil {
		return nil, err
	}
	if p.root == nil {
		return nil, p.errorf("no root element")
	}
	doc.root, doc.calls = p.root, countCalls(p.root)
	// Persisted IDs are all known now; number the rest above them.
	for _, n := range p.fresh {
		doc.nextID++
		n.id = doc.nextID
		doc.index[n.id] = n
	}
	return doc, nil
}

// ParseFragment parses s, a document with one root element, straight into
// dst and returns the root detached. It is how service results become tree
// nodes. New nodes take dst's next IDs in document order; if s is rejected,
// dst's index and ID allocator are left exactly as they were.
func ParseFragment(dst *Document, s string) (*Node, error) {
	p := newParser(dst, strings.Clone(s), "fragment")
	defer p.release()
	return p.fragment()
}

// RestoreFragment is ParseFragment for a fragment of a sharded document:
// elements carrying idAttr keep that ID (and advance dst's allocator past
// it); other nodes take dst's next IDs in document order.
func RestoreFragment(dst *Document, s, idAttr string) (*Node, error) {
	p := newParser(dst, strings.Clone(s), "fragment")
	defer p.release()
	p.idAttr = idAttr
	return p.fragment()
}

// ParseContent parses s as element content (a sequence of elements, text
// and comments, as between a start and end tag) straight into dst and
// returns the top-level nodes, detached, in order. It is how <data>
// payloads of update actions become tree nodes. If s is rejected, dst is
// left exactly as it was.
func ParseContent(dst *Document, s string) ([]*Node, error) {
	p := newParser(dst, strings.Clone(s), "fragment")
	defer p.release()
	p.content = true
	mark := dst.nextID
	if err := p.run(); err != nil {
		p.rollback(mark)
		return nil, err
	}
	return p.top, nil
}

func (p *parser) fragment() (*Node, error) {
	mark := p.doc.nextID
	err := p.run()
	if err == nil && p.root == nil {
		err = p.errorf("no root element")
	}
	if err != nil {
		p.rollback(mark)
		return nil, err
	}
	return p.root, nil
}

// rollback forgets every node the failed parse created: each is the root,
// a top-level node, a child still pending its parent's end tag, or inside
// the subtree of one of those.
func (p *parser) rollback(mark NodeID) {
	forget := func(n *Node) bool {
		delete(p.doc.index, n.id)
		return true
	}
	if p.root != nil {
		p.root.Walk(forget)
	}
	for _, n := range p.top {
		n.Walk(forget)
	}
	for _, n := range p.kids {
		n.Walk(forget)
	}
	p.doc.nextID = mark
}

// parsers recycles parser scratch stacks: most parses are small (an
// action, a service result, one fragment), and growing four stacks from
// nothing would cost about as many allocations as their nodes.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// maxPooledDepth bounds the stacks a pooled parser keeps.
const maxPooledDepth = 256

func newParser(dst *Document, src, name string) *parser {
	p := parsers.Get().(*parser)
	p.doc, p.src, p.docName = dst, src, name
	return p
}

// release returns p to the pool holding no reference into the document or
// its input.
func (p *parser) release() {
	if max(cap(p.open), cap(p.kids), cap(p.ns), cap(p.attrs)) > maxPooledDepth {
		return
	}
	clear(p.open[:cap(p.open)])
	clear(p.kids[:cap(p.kids)])
	clear(p.ns[:cap(p.ns)])
	clear(p.attrs[:cap(p.attrs)])
	*p = parser{open: p.open[:0], kids: p.kids[:0], ns: p.ns[:0], attrs: p.attrs[:0]}
	parsers.Put(p)
}

type parser struct {
	src     string // the parse's own copy of the input; names and text slice it
	pos     int
	docName string // for error messages
	doc     *Document

	idAttr   string  // attribute carrying persisted element IDs, or ""
	deferIDs bool    // number unpersisted nodes only after the parse
	fresh    []*Node // with deferIDs: nodes awaiting an ID, in order

	content bool    // parse element content rather than a document
	root    *Node   // document mode: the root element
	top     []*Node // content mode: the top-level nodes

	open  []openElem  // elements whose end tag is still to come
	kids  []*Node     // children of open elements, innermost last
	ns    []nsBinding // prefix declarations in scope, innermost last
	attrs []rawAttr   // scratch for the start tag being read
}

type openElem struct {
	raw  string // the name as written; the end tag must repeat it
	node *Node
	kids int // len(parser.kids) before this element's children
	ns   int // len(parser.ns) before this element's declarations
}

type nsBinding struct{ prefix, url string }

type rawAttr struct{ raw, prefix, local, value string }

func (p *parser) run() error {
	for p.pos < len(p.src) {
		if p.src[p.pos] != '<' {
			text, err := p.charData()
			if err != nil {
				return err
			}
			if strings.TrimSpace(text) != "" {
				p.leaf(TextNode, text)
			}
			continue
		}
		p.pos++
		c, err := p.next()
		if err != nil {
			return err
		}
		switch c {
		case '/':
			err = p.endTag()
		case '?':
			err = p.procInst()
		case '!':
			err = p.bang()
		default:
			p.pos--
			err = p.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(p.open) > 0 {
		return p.syntaxError("unexpected EOF")
	}
	return nil
}

// leaf adds a text or comment node under the innermost open element, or
// at the top in content mode; outside the root it is dropped.
func (p *parser) leaf(kind Kind, text string) {
	if len(p.open) == 0 && !p.content {
		return
	}
	n := &Node{kind: kind, text: text, doc: p.doc}
	p.assignID(n)
	p.attach(n)
}

func (p *parser) attach(n *Node) {
	if len(p.open) == 0 {
		if p.content {
			p.top = append(p.top, n)
		} else {
			p.root = n
		}
		return
	}
	// Children collect on a shared stack until their parent's end tag, so
	// each element gets one children slice of the right size.
	n.parent = p.open[len(p.open)-1].node
	p.kids = append(p.kids, n)
}

func (p *parser) assignID(n *Node) {
	if p.deferIDs {
		p.fresh = append(p.fresh, n)
		return
	}
	d := p.doc
	d.nextID++
	n.id = d.nextID
	d.index[n.id] = n
}

func (p *parser) startTag() error {
	raw, prefix, local, err := p.nsName("expected element name after <")
	if err != nil {
		return err
	}
	attrs := p.attrs[:0]
	empty := false
	for {
		p.space()
		c, err := p.next()
		if err != nil {
			return err
		}
		if c == '/' {
			if c, err = p.next(); err != nil {
				return err
			}
			if c != '>' {
				return p.syntaxError("expected /> in element")
			}
			empty = true
			break
		}
		if c == '>' {
			break
		}
		p.pos--
		var a rawAttr
		if a.raw, a.prefix, a.local, err = p.nsName("expected attribute name in element"); err != nil {
			return err
		}
		p.space()
		if c, err = p.next(); err != nil {
			return err
		}
		if c != '=' {
			return p.syntaxError("attribute name without = in element")
		}
		p.space()
		if c, err = p.next(); err != nil {
			return err
		}
		if c != '"' && c != '\'' {
			return p.syntaxError("unquoted or missing attribute value in element")
		}
		if a.value, err = p.quoted(c); err != nil {
			return err
		}
		attrs = append(attrs, a)
	}
	p.attrs = attrs
	if len(p.open) == 0 && !p.content && p.root != nil {
		return fmt.Errorf("xmldom: parse %s: %w", p.docName, ErrHasRoot)
	}

	// An element's declarations apply to its own name and attributes.
	mark := len(p.ns)
	for _, a := range attrs {
		switch {
		case a.prefix == "xmlns":
			p.ns = append(p.ns, nsBinding{a.local, a.value})
		case a.prefix == "" && a.local == "xmlns":
			p.ns = append(p.ns, nsBinding{"", a.value})
		}
	}
	el := &Node{kind: ElementNode, name: p.qualName(raw, prefix, local, true), doc: p.doc}
	if len(attrs) > 0 {
		el.attrs = make([]Attr, 0, len(attrs))
		for _, a := range attrs {
			el.SetAttr(p.qualName(a.raw, a.prefix, a.local, false), a.value)
		}
	}
	if err := p.assignElementID(el); err != nil {
		return err
	}
	p.attach(el)
	if empty {
		p.ns = p.ns[:mark]
	} else {
		p.open = append(p.open, openElem{raw: raw, node: el, kids: len(p.kids), ns: mark})
	}
	return nil
}

// assignElementID gives el its persisted ID when it carries idAttr, and a
// fresh one otherwise.
func (p *parser) assignElementID(el *Node) error {
	if p.idAttr != "" {
		for i, a := range el.attrs {
			if a.Name != p.idAttr {
				continue
			}
			el.attrs = append(el.attrs[:i], el.attrs[i+1:]...)
			id, err := strconv.ParseUint(a.Value, 10, 64)
			if err != nil {
				return p.errorf("bad %s %q", p.idAttr, a.Value)
			}
			d := p.doc
			if id == uint64(InvalidID) {
				return p.errorf("cannot create node with the invalid ID")
			}
			if _, taken := d.index[NodeID(id)]; taken {
				return p.errorf("ID %d already in use", id)
			}
			el.id = NodeID(id)
			d.index[el.id] = el
			if el.id > d.nextID {
				d.nextID = el.id
			}
			return nil
		}
	}
	p.assignID(el)
	return nil
}

func (p *parser) endTag() error {
	raw, _, local, err := p.nsName("expected element name after </")
	if err != nil {
		return err
	}
	p.space()
	c, err := p.next()
	if err != nil {
		return err
	}
	if c != '>' {
		return p.syntaxError("invalid characters between </" + local + " and >")
	}
	if len(p.open) == 0 {
		return p.syntaxError("unexpected end element </" + local + ">")
	}
	top := p.open[len(p.open)-1]
	if top.raw != raw {
		return p.syntaxError("element <" + top.raw + "> closed by </" + raw + ">")
	}
	if kids := p.kids[top.kids:]; len(kids) > 0 {
		top.node.children = slices.Clone(kids)
		clear(kids)
		p.kids = p.kids[:top.kids]
	}
	p.ns = p.ns[:top.ns]
	p.open = p.open[:len(p.open)-1]
	return nil
}

// qualName renders a name as the tree stores it. A bound prefix resolves
// to its namespace: AXML markup uses the conventional "axml" prefix, so an
// AXML namespace URL maps to "axml:", any other URL keeps only the local
// name, an empty binding drops the prefix, and a binding that is not a URL
// replaces the prefix. An unbound prefix is kept verbatim. Unprefixed
// attributes and xmlns declarations are never resolved, and "xml:" (the
// XML namespace) keeps only the local name.
func (p *parser) qualName(raw, prefix, local string, element bool) string {
	switch {
	case prefix == "xmlns", prefix == "" && !element:
		return raw
	case prefix == "xml":
		return local
	case prefix == "" && local == "xmlns":
		return raw
	}
	url, bound := p.lookup(prefix)
	switch {
	case !bound || url == prefix:
		return raw
	case url == "":
		return local
	case strings.Contains(url, "://"):
		if !strings.Contains(url, "activexml") {
			return local
		}
		if prefix == "axml" {
			return raw
		}
		return "axml:" + local
	default:
		return url + ":" + local
	}
}

func (p *parser) lookup(prefix string) (string, bool) {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].url, true
		}
	}
	return "", false
}

// procInst skips a processing instruction, checking an XML declaration.
func (p *parser) procInst() error {
	target, err := p.name("expected target name after <?")
	if err != nil {
		return err
	}
	p.space()
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return p.eof()
	}
	data := p.src[p.pos : p.pos+end]
	p.pos += end + 2
	if target != "xml" {
		return nil
	}
	if ver := procInstParam("version", data); ver != "" && ver != "1.0" {
		return p.errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", data); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return p.errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// procInstParam returns the quoted value after the first `param=` that is
// followed by a quote. It is how the XML declaration's version and
// encoding have always been read, loose as that is.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var quote byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], quote)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang handles what follows "<!": a comment, a CDATA section or a
// directive.
func (p *parser) bang() error {
	c, err := p.next()
	if err != nil {
		return err
	}
	switch c {
	case '-':
		if c, err = p.next(); err != nil {
			return err
		}
		if c != '-' {
			return p.syntaxError("invalid sequence <!- not part of <!--")
		}
		end := strings.Index(p.src[p.pos:], "--")
		if end < 0 || p.pos+end+2 >= len(p.src) {
			return p.eof()
		}
		text := p.src[p.pos : p.pos+end]
		p.pos += end + 2
		if p.src[p.pos] != '>' {
			return p.syntaxError(`invalid sequence "--" not allowed in comments`)
		}
		p.pos++
		p.leaf(CommentNode, text)
		return nil
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if c, err = p.next(); err != nil {
				return err
			}
			if c != "CDATA["[i] {
				return p.syntaxError("invalid <![ sequence")
			}
		}
		end := strings.Index(p.src[p.pos:], "]]>")
		if end < 0 {
			return p.syntaxError("unexpected EOF in CDATA section")
		}
		raw := p.src[p.pos : p.pos+end]
		p.pos += end + 3
		text, err := p.decode(raw, false)
		if err != nil {
			return err
		}
		if strings.TrimSpace(text) != "" {
			p.leaf(TextNode, text)
		}
		return nil
	}
	return p.directive()
}

// directive skips a directive such as <!DOCTYPE ...>, whose first byte is
// already read. Quoted angle brackets do not nest, unquoted ones do, and
// an embedded <!-- comment --> is skipped whole.
func (p *parser) directive() error {
	var quote byte
	depth := 0
	for {
		c, err := p.next()
		if err != nil {
			return err
		}
		if quote == 0 && c == '>' && depth == 0 {
			return nil
		}
	examine:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for i := 0; i < len("!--"); i++ {
				if c, err = p.next(); err != nil {
					return err
				}
				if c != "!--"[i] {
					// Not a comment: a nested bracket, and the byte that
					// broke the match is examined in its own right.
					depth++
					goto examine
				}
			}
			end := strings.Index(p.src[p.pos:], "-->")
			if end < 0 {
				return p.eof()
			}
			p.pos += end + 3
		}
	}
}

// charData reads text up to the next '<' or the end of input.
func (p *parser) charData() (string, error) {
	raw := p.src[p.pos:]
	if end := strings.IndexByte(raw, '<'); end >= 0 {
		raw = raw[:end]
	}
	p.pos += len(raw)
	if strings.Contains(raw, "]]>") {
		return "", p.syntaxError("unescaped ]]> not in CDATA section")
	}
	return p.decode(raw, true)
}

// quoted reads an attribute value up to the closing quote.
func (p *parser) quoted(quote byte) (string, error) {
	end := strings.IndexByte(p.src[p.pos:], quote)
	if end < 0 {
		return "", p.eof()
	}
	raw := p.src[p.pos : p.pos+end]
	p.pos += end + 1
	if strings.IndexByte(raw, '<') >= 0 {
		return "", p.syntaxError("unescaped < inside quoted string")
	}
	return p.decode(raw, true)
}

// decode returns raw with line ends folded and, if entities is set,
// references expanded, after checking every character. Text needing
// neither is returned as the slice it is.
func (p *parser) decode(raw string, entities bool) (string, error) {
	for i := 0; i < len(raw); i++ {
		if c := raw[i]; c == '\r' || c == '&' && entities {
			return p.decodeSlow(raw, entities)
		}
	}
	return raw, p.checkChars(raw)
}

func (p *parser) decodeSlow(raw string, entities bool) (string, error) {
	out := make([]byte, 0, len(raw))
	var prev byte // the previous input byte, for "\r\n"
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '&' && entities:
			text, n := expandRef(raw[i+1:])
			if n == 0 {
				ref := raw[i:]
				if end := strings.IndexByte(ref, ';'); end >= 0 {
					ref = ref[:end+1]
				}
				return "", p.syntaxError("invalid character entity " + ref)
			}
			out = append(out, text...)
			i += n
			prev = 0
			continue
		case c == '\r':
			out = append(out, '\n')
		case c == '\n' && prev == '\r':
		default:
			out = append(out, c)
		}
		prev = c
	}
	s := string(out)
	return s, p.checkChars(s)
}

// expandRef expands the reference after an '&': one of the five
// predefined entities or a decimal or hex character reference, each ended
// by ';'. It returns the replacement and the bytes consumed, or n == 0 if
// s does not start with a valid reference.
func expandRef(s string) (text string, n int) {
	if !strings.HasPrefix(s, "#") {
		for _, e := range predefined {
			if strings.HasPrefix(s, e.ref) {
				return e.text, len(e.ref)
			}
		}
		return "", 0
	}
	i, base := 1, 10
	if i < len(s) && s[i] == 'x' {
		i, base = 2, 16
	}
	j := i
	for j < len(s) && isDigit(s[j], base) {
		j++
	}
	if j == len(s) || s[j] != ';' {
		return "", 0
	}
	v, err := strconv.ParseUint(s[i:j], base, 64)
	if err != nil || v > unicode.MaxRune {
		return "", 0
	}
	// string(rune) turns a surrogate into U+FFFD, which is then accepted.
	return string(rune(v)), j + 1
}

var predefined = [...]struct{ ref, text string }{
	{"lt;", "<"}, {"gt;", ">"}, {"amp;", "&"}, {"apos;", "'"}, {"quot;", `"`},
}

func isDigit(c byte, base int) bool {
	return '0' <= c && c <= '9' || base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')
}

// checkChars rejects invalid UTF-8 and characters outside the XML Char
// production.
func (p *parser) checkChars(s string) error {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return p.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			return p.syntaxError("invalid UTF-8")
		}
		if !(r <= 0xD7FF || 0xE000 <= r && r <= 0xFFFD || 0x10000 <= r && r <= 0x10FFFF) {
			return p.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		i += size
	}
	return nil
}

// nsName reads a name with at most one colon and splits it into prefix
// and local part; a name with an empty side of its colon has no prefix.
// missing is the error when no name starts here.
func (p *parser) nsName(missing string) (raw, prefix, local string, err error) {
	if raw, err = p.name(missing); err != nil {
		return "", "", "", err
	}
	prefix, local, found := strings.Cut(raw, ":")
	switch {
	case strings.Contains(local, ":"):
		return "", "", "", p.syntaxError(missing)
	case !found || prefix == "" || local == "":
		prefix, local = "", raw
	}
	return raw, prefix, local, nil
}

// name reads an XML name: every byte up to the first ASCII byte that
// cannot be in a name, then a check of the whole name.
func (p *parser) name(missing string) (string, error) {
	start := p.pos
	for ; p.pos < len(p.src); p.pos++ {
		if c := p.src[p.pos]; c < utf8.RuneSelf && !isNameByte(c) {
			break
		}
	}
	switch {
	case p.pos == len(p.src):
		return "", p.eof()
	case p.pos == start:
		return "", p.syntaxError(missing)
	}
	s := p.src[start:p.pos]
	if !isName(s) {
		return "", p.syntaxError("invalid XML name: " + s)
	}
	return s, nil
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

func (p *parser) space() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) next() (byte, error) {
	if p.pos >= len(p.src) {
		return 0, p.eof()
	}
	c := p.src[p.pos]
	p.pos++
	return c, nil
}

func (p *parser) eof() error { return p.syntaxError("unexpected EOF") }

func (p *parser) syntaxError(msg string) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return p.errorf("XML syntax error on line %d: %s", line, msg)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("xmldom: parse %s: %s", p.docName, fmt.Sprintf(format, args...))
}
