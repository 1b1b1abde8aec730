package core

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"axmltx/internal/codec"
)

// goldenChain is the fixture invocation tree used by every chain-carrying
// message: [AP1* → AP2 → AP3].
func goldenChain() *Chain {
	c := NewChain("AP1", true)
	c = c.Add("AP1", "AP2", "svcB", false)
	c = c.Add("AP2", "AP3", "svcC", false)
	return c
}

// wireFixture pairs one fully-populated instance of each message kind with
// the pinned bytes of its encoding. The bytes are the compatibility contract
// between peers: a format change bumps wireVersion, it does not rewrite
// these.
type wireFixture struct {
	name   string
	msg    any
	fresh  func() any // zero decode target of the same type
	golden string     // hex of EncodeWire(msg)
}

func wireFixtures() []wireFixture {
	return []wireFixture{
		{
			name: "InvokeRequest",
			msg: &InvokeRequest{
				Txn: "txn-1", Origin: "AP1", Caller: "AP2", Service: "svcC",
				Params: map[string]string{"doc": "orders.xml", "qty": "2"},
				Chain:  goldenChain(), Async: true,
				Reused: map[string][]string{"svcD": {"<d/>", "<e/>"}},
			},
			fresh:  func() any { return new(InvokeRequest) },
			golden: "02010574786e2d31034150310341503204737663430203646f630a6f72646572732e786d6c037174790132010303415031010001034150320004737663420003415033000473766343020101047376634402043c642f3e043c652f3e",
		},
		{
			name: "InvokeResponse",
			msg: &InvokeResponse{
				Service: "svcC", Fragments: []string{"<r1/>", "<r2/>"},
				Chain: goldenChain(), Comp: []byte{0xde, 0xad}, Nodes: 7,
			},
			fresh:  func() any { return new(InvokeResponse) },
			golden: "0202047376634302053c72312f3e053c72322f3e0103034150310100010341503200047376634200034150330004737663430202dead0e",
		},
		{
			name:   "ChainUpdate",
			msg:    &ChainUpdate{Txn: "txn-1", Chain: goldenChain()},
			fresh:  func() any { return new(ChainUpdate) },
			golden: "02030574786e2d3101030341503101000103415032000473766342000341503300047376634302",
		},
		{
			name:   "DisconnectNotice",
			msg:    &DisconnectNotice{Txn: "txn-1", Dead: "AP3", Detected: "AP2"},
			fresh:  func() any { return new(DisconnectNotice) },
			golden: "02040574786e2d310341503303415032",
		},
		{
			name: "RedirectResult",
			msg: &RedirectResult{
				Txn: "txn-1", Dead: "AP2", Service: "svcC",
				Response: InvokeResponse{Service: "svcC", Fragments: []string{"<x/>"}, Nodes: 3},
			},
			fresh:  func() any { return new(RedirectResult) },
			golden: "02050574786e2d31034150320473766343047376634301043c782f3e000006",
		},
		{
			name:   "StreamBatch",
			msg:    &StreamBatch{Txn: "txn-1", Service: "svcS", Seq: 4, Fragments: []string{"<b/>"}},
			fresh:  func() any { return new(StreamBatch) },
			golden: "02060574786e2d3104737663530801043c622f3e",
		},
		{
			name:   "FragFetchRequest",
			msg:    &FragFetchRequest{IDs: []string{"league#spine", "league#7"}},
			fresh:  func() any { return new(FragFetchRequest) },
			golden: "020d020c6c6561677565237370696e65086c65616775652337",
		},
		{
			name: "FragFetchResponse",
			msg: &FragFetchResponse{Pieces: []FragPiece{
				{ID: "league#spine", Found: true, Doc: "league", XML: "<league/>", Manifest: []string{"league#7", "league#9"}},
				{ID: "league#7", Found: true, Doc: "league", Root: 7, Parent: 1, Pos: 2, XML: "<p/>", Nodes: 3, Version: 2},
				{ID: "league#9"},
				{ID: "league#11", Deferred: true},
			}},
			fresh:  func() any { return new(FragFetchResponse) },
			golden: "020e040c6c6561677565237370696e650100066c6561677565000000093c6c65616775652f3e000002086c65616775652337086c65616775652339086c656167756523370100066c6561677565070104043c702f3e060200086c6561677565233900000000000000000000096c656167756523313100010000000000000000",
		},
	}
}

// TestGoldenWireBytes pins the exact bytes of every message kind's binary
// encoding. Maps encode in sorted key order, so the encoding is
// deterministic and the pin is stable.
func TestGoldenWireBytes(t *testing.T) {
	for _, f := range wireFixtures() {
		t.Run(f.name, func(t *testing.T) {
			got := hex.EncodeToString(EncodeWire(f.msg))
			if got != f.golden {
				t.Fatalf("encoding changed (bump wireVersion instead of editing the pin)\n   got %s\ngolden %s", got, f.golden)
			}
			// The golden bytes decode back to the fixture.
			out := f.fresh()
			raw, err := hex.DecodeString(f.golden)
			if err != nil {
				t.Fatal(err)
			}
			if err := DecodeWire(raw, out); err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if !reflect.DeepEqual(out, f.msg) {
				t.Fatalf("golden decode mismatch:\n got %+v\nwant %+v", out, f.msg)
			}
		})
	}
}

// TestWireUnknownVersion: any first byte other than wireVersion — an older
// or newer format, or bytes that are no payload at all — is the typed
// version error, never a misparse.
func TestWireUnknownVersion(t *testing.T) {
	for _, first := range []byte{0x00, 0x01, 0x03, 0x05, 0x40, 0xff} {
		var req InvokeRequest
		err := DecodeWire([]byte{first, wkInvokeRequest, 0x00}, &req)
		if !errors.Is(err, errWireVersion) {
			t.Fatalf("first byte %#x: err = %v, want errWireVersion", first, err)
		}
	}
}

// TestWireKindTagMismatch: a binary payload routed to the wrong decode
// target must fail, not shred fields.
func TestWireKindTagMismatch(t *testing.T) {
	b := EncodeWire(&DisconnectNotice{Txn: "t", Dead: "AP2", Detected: "AP1"})
	var resp InvokeResponse
	if err := DecodeWire(b, &resp); !errors.Is(err, errWireKind) {
		t.Fatalf("decoding a DisconnectNotice payload as InvokeResponse: err = %v, want errWireKind", err)
	}
}

// TestWireRetiredFragFetchTags: tags 9 and 10 carried the single-fragment
// fetch exchange. Its payloads are the typed kind-tag error for the batched
// messages, never misparsed as them.
func TestWireRetiredFragFetchTags(t *testing.T) {
	for _, tag := range []byte{9, 10} {
		old := []byte{wireVersion, tag, 8}
		old = append(old, "league#7"...)
		for _, v := range []any{new(FragFetchRequest), new(FragFetchResponse)} {
			if err := DecodeWire(old, v); !errors.Is(err, errWireKind) {
				t.Fatalf("tag %d as %T: err = %v, want errWireKind", tag, v, err)
			}
		}
	}
}

// FuzzWireDecode asserts the binary wire decoder never panics or
// over-reads on truncated or bit-flipped frames, and that everything it
// does accept survives a re-encode round trip. Wired into the nightly
// fuzz job.
func FuzzWireDecode(f *testing.F) {
	for _, fx := range wireFixtures() {
		f.Add(EncodeWire(fx.msg))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		targets := []func() any{
			func() any { return new(InvokeRequest) },
			func() any { return new(InvokeResponse) },
			func() any { return new(ChainUpdate) },
			func() any { return new(DisconnectNotice) },
			func() any { return new(RedirectResult) },
			func() any { return new(StreamBatch) },
			func() any { return new(FragFetchRequest) },
			func() any { return new(FragFetchResponse) },
		}
		for _, fresh := range targets {
			v := fresh()
			if err := DecodeWire(b, v); err != nil {
				if !errors.Is(err, codec.ErrMalformed) && !errors.Is(err, codec.ErrTrailing) &&
					!errors.Is(err, errWireVersion) && err.Error() == "" {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			// Accepted input: the value round trip must be stable.
			w := fresh()
			if err := DecodeWire(EncodeWire(v), w); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !reflect.DeepEqual(v, w) {
				t.Fatalf("round trip unstable:\n got %+v\nwant %+v", w, v)
			}
		}
	})
}
