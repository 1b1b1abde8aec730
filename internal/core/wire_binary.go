package core

import (
	"errors"
	"fmt"
	"sort"

	"axmltx/internal/codec"
	"axmltx/internal/p2p"
)

// The wire format: every payload opens with a version byte and a
// message-kind tag, then the fields in declaration order under the varint
// framing of internal/codec. It is the only payload format peers speak;
// TestGoldenWireBytes pins its bytes, and a format change bumps wireVersion.
const wireVersion = 0x02

// Message-kind tags; decode validates the tag against the decode target so
// a payload routed to the wrong handler fails loudly instead of shredding
// fields into the wrong struct.
const (
	wkInvokeRequest byte = iota + 1
	wkInvokeResponse
	wkChainUpdate
	wkDisconnectNotice
	wkRedirectResult
	wkStreamBatch
	wkCacheFetchRequest
	wkCacheFetchResponse
	_ // 9: the single-fragment fetch request, retired; never reuse
	_ // 10: the single-fragment fetch response, retired; never reuse
	wkFragMigrateRequest
	wkFragMigrateResponse
	wkFragFetchRequest
	wkFragFetchResponse
)

// errWireVersion reports a payload whose version byte this build does not
// speak.
var errWireVersion = errors.New("core: unsupported wire version")

// errWireKind reports a payload whose kind tag is not the decode target's,
// including the retired tags.
var errWireKind = errors.New("core: wire kind tag mismatch")

// encode renders a wire payload: no reflection, no type descriptors, one
// output allocation per message (strings decode zero-copy on the other side).
func encode(v any) []byte {
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	w.Byte(wireVersion)
	switch m := v.(type) {
	case *InvokeRequest:
		w.Byte(wkInvokeRequest)
		appendInvokeRequest(w, m)
	case *InvokeResponse:
		w.Byte(wkInvokeResponse)
		appendInvokeResponse(w, m)
	case *ChainUpdate:
		w.Byte(wkChainUpdate)
		w.String(m.Txn)
		appendChain(w, m.Chain)
	case *DisconnectNotice:
		w.Byte(wkDisconnectNotice)
		w.String(m.Txn)
		w.String(string(m.Dead))
		w.String(string(m.Detected))
	case *RedirectResult:
		w.Byte(wkRedirectResult)
		w.String(m.Txn)
		w.String(string(m.Dead))
		w.String(m.Service)
		appendInvokeResponse(w, &m.Response)
	case *StreamBatch:
		w.Byte(wkStreamBatch)
		w.String(m.Txn)
		w.String(m.Service)
		w.Varint(int64(m.Seq))
		w.Strings(m.Fragments)
	case *CacheFetchRequest:
		w.Byte(wkCacheFetchRequest)
		w.String(m.Key)
		w.String(m.Service)
	case *CacheFetchResponse:
		w.Byte(wkCacheFetchResponse)
		w.String(m.Key)
		w.String(m.Service)
		w.Bool(m.Found)
		w.Strings(m.Fragments)
		w.Varint(m.FetchedUnixNano)
		w.Varint(m.WindowNanos)
	case *FragFetchRequest:
		w.Byte(wkFragFetchRequest)
		w.Strings(m.IDs)
	case *FragFetchResponse:
		w.Byte(wkFragFetchResponse)
		w.Uvarint(uint64(len(m.Pieces)))
		for i := range m.Pieces {
			appendFragPiece(w, &m.Pieces[i])
		}
	case *FragMigrateRequest:
		w.Byte(wkFragMigrateRequest)
		w.String(m.ID)
		w.String(m.Doc)
		w.Uvarint(m.Root)
		w.Uvarint(m.Parent)
		w.Varint(int64(m.Pos))
		w.String(m.XML)
		w.Varint(int64(m.Nodes))
		w.Uvarint(m.Version)
	case *FragMigrateResponse:
		w.Byte(wkFragMigrateResponse)
		w.String(m.ID)
		w.Bool(m.OK)
	default:
		panic(fmt.Sprintf("core: encode: unknown wire type %T", v))
	}
	return w.Finish()
}

// decode parses a wire payload into v. Strings in the decoded message alias
// b, which is freshly allocated per message by every transport and never
// recycled.
func decode(b []byte, v any) error {
	r := codec.NewReader(b)
	if ver := r.Byte(); r.Err() == nil && ver != wireVersion {
		return fmt.Errorf("%w: %d, want %d", errWireVersion, ver, wireVersion)
	}
	kind := r.Byte()
	var want byte
	switch m := v.(type) {
	case *InvokeRequest:
		want = wkInvokeRequest
		if kind == want {
			readInvokeRequest(r, m)
		}
	case *InvokeResponse:
		want = wkInvokeResponse
		if kind == want {
			readInvokeResponse(r, m)
		}
	case *ChainUpdate:
		want = wkChainUpdate
		if kind == want {
			m.Txn = r.String()
			m.Chain = readChain(r)
		}
	case *DisconnectNotice:
		want = wkDisconnectNotice
		if kind == want {
			m.Txn = r.String()
			m.Dead = p2p.PeerID(r.String())
			m.Detected = p2p.PeerID(r.String())
		}
	case *RedirectResult:
		want = wkRedirectResult
		if kind == want {
			m.Txn = r.String()
			m.Dead = p2p.PeerID(r.String())
			m.Service = r.String()
			readInvokeResponse(r, &m.Response)
		}
	case *StreamBatch:
		want = wkStreamBatch
		if kind == want {
			m.Txn = r.String()
			m.Service = r.String()
			m.Seq = int(r.Varint())
			m.Fragments = r.Strings()
		}
	case *CacheFetchRequest:
		want = wkCacheFetchRequest
		if kind == want {
			m.Key = r.String()
			m.Service = r.String()
		}
	case *CacheFetchResponse:
		want = wkCacheFetchResponse
		if kind == want {
			m.Key = r.String()
			m.Service = r.String()
			m.Found = r.Bool()
			m.Fragments = r.Strings()
			m.FetchedUnixNano = r.Varint()
			m.WindowNanos = r.Varint()
		}
	case *FragFetchRequest:
		want = wkFragFetchRequest
		if kind == want {
			m.IDs = r.Strings()
		}
	case *FragFetchResponse:
		want = wkFragFetchResponse
		if kind == want {
			m.Pieces = readFragPieces(r)
		}
	case *FragMigrateRequest:
		want = wkFragMigrateRequest
		if kind == want {
			m.ID = r.String()
			m.Doc = r.String()
			m.Root = r.Uvarint()
			m.Parent = r.Uvarint()
			m.Pos = int(r.Varint())
			m.XML = r.String()
			m.Nodes = int(r.Varint())
			m.Version = r.Uvarint()
		}
	case *FragMigrateResponse:
		want = wkFragMigrateResponse
		if kind == want {
			m.ID = r.String()
			m.OK = r.Bool()
		}
	default:
		return fmt.Errorf("core: decode: unknown wire type %T", v)
	}
	if r.Err() == nil && kind != want {
		return fmt.Errorf("core: decode %T: %w: payload has kind tag %d, want %d", v, errWireKind, kind, want)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("core: decode %T: %w", v, err)
	}
	return nil
}

func appendInvokeRequest(w *codec.Writer, m *InvokeRequest) {
	w.String(m.Txn)
	w.String(string(m.Origin))
	w.String(string(m.Caller))
	w.String(m.Service)
	appendStringMap(w, m.Params)
	appendChain(w, m.Chain)
	w.Bool(m.Async)
	appendStringsMap(w, m.Reused)
}

func readInvokeRequest(r *codec.Reader, m *InvokeRequest) {
	m.Txn = r.String()
	m.Origin = p2p.PeerID(r.String())
	m.Caller = p2p.PeerID(r.String())
	m.Service = r.String()
	m.Params = readStringMap(r)
	m.Chain = readChain(r)
	m.Async = r.Bool()
	m.Reused = readStringsMap(r)
}

func appendInvokeResponse(w *codec.Writer, m *InvokeResponse) {
	w.String(m.Service)
	w.Strings(m.Fragments)
	appendChain(w, m.Chain)
	w.BytesPrefixed(m.Comp)
	w.Varint(int64(m.Nodes))
}

func readInvokeResponse(r *codec.Reader, m *InvokeResponse) {
	m.Service = r.String()
	m.Fragments = r.Strings()
	m.Chain = readChain(r)
	m.Comp = r.BytesPrefixed()
	m.Nodes = int(r.Varint())
}

func appendFragPiece(w *codec.Writer, m *FragPiece) {
	w.String(m.ID)
	w.Bool(m.Found)
	w.Bool(m.Deferred)
	w.String(m.Doc)
	w.Uvarint(m.Root)
	w.Uvarint(m.Parent)
	w.Varint(int64(m.Pos))
	w.String(m.XML)
	w.Varint(int64(m.Nodes))
	w.Uvarint(m.Version)
	w.Strings(m.Manifest)
}

func readFragPieces(r *codec.Reader) []FragPiece {
	n := r.Count(11) // minimal piece: one byte per field
	if n == 0 {
		return nil
	}
	out := make([]FragPiece, n)
	for i := range out {
		m := &out[i]
		m.ID = r.String()
		m.Found = r.Bool()
		m.Deferred = r.Bool()
		m.Doc = r.String()
		m.Root = r.Uvarint()
		m.Parent = r.Uvarint()
		m.Pos = int(r.Varint())
		m.XML = r.String()
		m.Nodes = int(r.Varint())
		m.Version = r.Uvarint()
		m.Manifest = r.Strings()
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// appendChain encodes a possibly-nil invocation tree: presence flag, node
// count, then each node's peer/super/service/parent.
func appendChain(w *codec.Writer, c *Chain) {
	if c == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Uvarint(uint64(len(c.Nodes)))
	for _, n := range c.Nodes {
		w.String(string(n.Peer))
		w.Bool(n.Super)
		w.String(n.Service)
		w.Varint(int64(n.Parent))
	}
}

func readChain(r *codec.Reader) *Chain {
	if !r.Bool() {
		return nil
	}
	n := r.Count(4) // minimal node: 3 empty strings + parent byte
	c := &Chain{Nodes: make([]ChainNode, 0, n)}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, ChainNode{
			Peer:    p2p.PeerID(r.String()),
			Super:   r.Bool(),
			Service: r.String(),
			Parent:  int(r.Varint()),
		})
		if r.Err() != nil {
			return nil
		}
	}
	return c
}

// appendStringMap encodes a map in sorted key order, so equal maps encode
// to equal bytes (the golden fixture test depends on determinism).
func appendStringMap(w *codec.Writer, m map[string]string) {
	w.Uvarint(uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.String(k)
		w.String(m[k])
	}
}

func readStringMap(r *codec.Reader) map[string]string {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.String()
		if r.Err() != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

func appendStringsMap(w *codec.Writer, m map[string][]string) {
	w.Uvarint(uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.String(k)
		w.Strings(m[k])
	}
}

func readStringsMap(r *codec.Reader) map[string][]string {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.Strings()
		if r.Err() != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

// EncodeWire renders v in the wire format. Exported for the codec benchmarks
// in internal/sim and cmd/axmlbench.
func EncodeWire(v any) []byte { return encode(v) }

// DecodeWire parses a wire payload into v. Besides the benchmarks, the chaos
// injector reads an invocation's depth from its payload with it.
func DecodeWire(b []byte, v any) error { return decode(b, v) }
