package p2p

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"axmltx/internal/codec"
)

// fullFrame populates every field of a frame.
func fullFrame() *wireFrame {
	return &wireFrame{
		ID: 300,
		Msg: Message{
			From: "AP1", To: "AP2", Kind: KindInvoke, Txn: "txn-1", Subject: "svcB",
			Payload: []byte{0xde, 0xad}, Err: "boom", Code: "peer_down", Span: "s-7~",
		},
	}
}

func encodeFrame(t testing.TB, f *wireFrame) []byte {
	t.Helper()
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	if err := appendFrame(w, f); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

func TestFrameRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	cases := map[string]*wireFrame{
		"zero":          {},
		"all fields":    fullFrame(),
		"response":      {ID: 1, Response: true, Msg: Message{Kind: "echo", Payload: []byte("x")}},
		"one-way":       {ID: 2, OneWay: true, Msg: Message{Kind: KindAbort, Txn: "TA"}},
		"max id":        {ID: ^uint64(0), Msg: Message{Kind: KindPing}},
		"nil payload":   {ID: 3, Msg: Message{Kind: KindCommit}},
		"empty payload": {ID: 3, Msg: Message{Kind: KindCommit, Payload: []byte{}}},
		"1 MiB payload": {ID: 4, Msg: Message{Kind: KindFragFetch, Payload: big}},
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			raw := encodeFrame(t, in)
			if n := binary.BigEndian.Uint32(raw); int(n) != len(raw)-frameHeaderLen {
				t.Fatalf("length header %d, body is %d bytes", n, len(raw)-frameHeaderLen)
			}
			br := bufio.NewReader(bytes.NewReader(raw))
			out, err := readFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			want := *in
			if len(want.Msg.Payload) == 0 {
				want.Msg.Payload = nil // nil and empty are one value on the wire
			}
			if !reflect.DeepEqual(out, &want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, &want)
			}
			if br.Buffered() != 0 {
				t.Fatalf("%d byte(s) left unread", br.Buffered())
			}
		})
	}
}

// goldenFrame pins the bytes of fullFrame's encoding: the frame layout is
// the compatibility contract between peers, as the payload fixtures in
// core/wire_golden_test.go are for what travels inside it.
const goldenFrame = "00000035" + "0100ac02" +
	"03415031" + "03415032" + "06696e766f6b65" + "0574786e2d31" + "0473766342" +
	"02dead" + "04626f6f6d" + "09706565725f646f776e" + "04732d377e"

func TestGoldenFrameBytes(t *testing.T) {
	if got := hex.EncodeToString(encodeFrame(t, fullFrame())); got != goldenFrame {
		t.Fatalf("frame encoding changed (bump frameVersion instead of editing the pin)\n   got %s\ngolden %s", got, goldenFrame)
	}
	raw, err := hex.DecodeString(goldenFrame)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, fullFrame()) {
		t.Fatalf("golden decode mismatch:\n got %+v\nwant %+v", out, fullFrame())
	}
}

func TestFrameRejected(t *testing.T) {
	good := encodeFrame(t, fullFrame())
	body := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), good[frameHeaderLen:]...))
	}
	cases := map[string][]byte{
		"empty body":      {},
		"unknown version": body(func(b []byte) []byte { b[0] = 0x02; return b }),
		"unknown flag":    body(func(b []byte) []byte { b[1] = 0x04; return b }),
		"trailing byte":   body(func(b []byte) []byte { return append(b, 0) }),
	}
	for cut := 1; cut < len(good)-frameHeaderLen; cut++ {
		if _, err := decodeFrame(good[frameHeaderLen : frameHeaderLen+cut]); !errors.Is(err, errFrame) {
			t.Fatalf("body truncated at %d: err = %v, want errFrame", cut, err)
		}
	}
	for name, b := range cases {
		if _, err := decodeFrame(b); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want errFrame", name, err)
		}
	}
	// An oversized length is refused from the header alone, before any body
	// arrives or is allocated.
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr))); !errors.Is(err, errFrame) {
		t.Errorf("oversized length: err = %v, want errFrame", err)
	}
	if err := appendFrame(new(codec.Writer), &wireFrame{Msg: Message{Payload: make([]byte, maxFrame)}}); err == nil {
		t.Error("appendFrame accepted a frame above maxFrame")
	}
}

// TestTCPBadFrameFailsInFlightRequest: a peer that answers with bytes that
// are not a frame gets its connection closed, and the request waiting on it
// fails with the typed disconnection error instead of hanging — also while
// the bad peer keeps its end of the socket open.
func TestTCPBadFrameFailsInFlightRequest(t *testing.T) {
	resp := &wireFrame{ID: 1, Response: true, Msg: Message{Kind: "echo"}}
	good := encodeFrame(t, resp)
	lengthened := append(append([]byte(nil), good...), 0)
	binary.BigEndian.PutUint32(lengthened, uint32(len(lengthened)-frameHeaderLen))
	badVersion := append([]byte(nil), good...)
	badVersion[frameHeaderLen] = 0x7f

	cases := []struct {
		name   string
		reply  []byte
		hangUp bool // close after replying: the rest of the frame never comes
	}{
		{"truncated header", good[:2], true},
		{"truncated body", good[:len(good)-3], true},
		{"length above maxFrame", binary.BigEndian.AppendUint32(nil, maxFrame+1), false},
		{"unknown version byte", badVersion, false},
		{"trailing bytes", lengthened, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			release := make(chan struct{})
			defer close(release)
			go func() {
				raw, err := ln.Accept()
				if err != nil {
					return
				}
				defer raw.Close()
				br := bufio.NewReader(raw)
				for { // skip the hello, answer the first request
					f, err := readFrame(br)
					if err != nil {
						return
					}
					if f.Msg.Kind != "hello" {
						break
					}
				}
				_, _ = raw.Write(tc.reply)
				if !tc.hangUp {
					<-release
				}
			}()

			a, err := ListenTCP("A", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			a.AddPeer("B", ln.Addr().String())
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := a.Request(ctx, "B", &Message{Kind: KindInvoke}); !errors.Is(err, ErrUnreachable) {
				t.Fatalf("err = %v, want ErrUnreachable", err)
			}
		})
	}
}

func TestTCPLargePayloadRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(func(ctx context.Context, msg *Message) (*Message, error) {
		return &Message{Kind: "echo", Payload: msg.Payload}, nil
	})
	big := bytes.Repeat([]byte{0xa5}, 1<<20)
	resp, err := a.Request(context.Background(), "B", &Message{Kind: KindInvoke, Payload: big})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Payload, big) {
		t.Fatalf("1 MiB payload came back as %d bytes", len(resp.Payload))
	}
}

// FuzzFrameDecode: whatever arrives on a socket, readFrame never panics and
// never consumes more than the frame its header announces, and a frame it
// accepts re-encodes to the bytes it was read from.
func FuzzFrameDecode(f *testing.F) {
	f.Add(encodeFrame(f, fullFrame()))
	f.Add(encodeFrame(f, &wireFrame{OneWay: true, Msg: Message{Kind: "hello", From: "AP1"}}))
	f.Add(encodeFrame(f, &wireFrame{}))
	f.Add([]byte{0, 0, 0, 2, frameVersion, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 13, frameVersion, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // ID 0 in two bytes
	f.Fuzz(func(t *testing.T, b []byte) {
		src := bytes.NewReader(b)
		br := bufio.NewReaderSize(src, 16)
		fr, err := readFrame(br)
		if err != nil {
			return
		}
		n := frameHeaderLen + int(binary.BigEndian.Uint32(b))
		if read := len(b) - src.Len() - br.Buffered(); read != n {
			t.Fatalf("consumed %d bytes of a %d-byte frame", read, n)
		}
		if got := encodeFrame(t, fr); !bytes.Equal(got, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, b[:n])
		}
	})
}
