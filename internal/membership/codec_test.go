package membership

import (
	"strings"
	"testing"
	"time"
)

func sampleSync() syncMsg {
	return syncMsg{
		From: "AP1",
		Members: []memberRecord{
			{ID: "AP1", State: int(StateAlive), Incarnation: 3, Addr: "127.0.0.1:9001"},
			{ID: "AP2", State: int(StateSuspect), Incarnation: 1},
		},
		Catalog: []CatalogEntry{
			{Origin: "AP1", Version: 4, Docs: []string{"a.xml"}, Services: []string{"svcA"},
				Announced: time.Unix(1700000000, 12345)},
			{Origin: "AP2", Version: 1}, // zero Announced
		},
	}
}

func syncEqual(a, b *syncMsg) bool {
	if a.From != b.From || len(a.Members) != len(b.Members) || len(a.Catalog) != len(b.Catalog) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	for i := range a.Catalog {
		x, y := a.Catalog[i], b.Catalog[i]
		if x.Origin != y.Origin || x.Version != y.Version || !x.Announced.Equal(y.Announced) {
			return false
		}
		if len(x.Docs) != len(y.Docs) || len(x.Services) != len(y.Services) {
			return false
		}
		for j := range x.Docs {
			if x.Docs[j] != y.Docs[j] {
				return false
			}
		}
		for j := range x.Services {
			if x.Services[j] != y.Services[j] {
				return false
			}
		}
	}
	return true
}

func TestSyncMsgBinaryRoundTrip(t *testing.T) {
	in := sampleSync()
	var out syncMsg
	if err := decode(encode(in), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !syncEqual(&in, &out) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
	if !out.Catalog[1].Announced.IsZero() {
		t.Fatal("zero Announced did not survive the round trip")
	}
}

func TestPingReqRoundTrip(t *testing.T) {
	var out pingReq
	if err := decode(encode(pingReq{Target: "AP7"}), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Target != "AP7" {
		t.Fatalf("Target = %q", out.Target)
	}
}

func TestGossipKindMismatch(t *testing.T) {
	var s syncMsg
	if err := decode(encode(pingReq{Target: "AP1"}), &s); err == nil {
		t.Fatal("pingReq payload decoded as syncMsg")
	}
}

func TestGossipTruncated(t *testing.T) {
	b := encode(sampleSync())
	for cut := 1; cut < len(b); cut += 7 {
		var s syncMsg
		if err := decode(b[:cut], &s); err == nil && cut < len(b) {
			t.Fatalf("truncated payload at %d decoded without error", cut)
		}
	}
}

// sampleSyncWithSummaries extends the sample with the metric-summary
// piggyback section.
func sampleSyncWithSummaries() syncMsg {
	m := sampleSync()
	m.Summaries = []PeerSummary{
		{Origin: "AP1", Version: 7, TakenUnixNano: 1700000000123, Payload: []byte{1, 2, 3}},
		{Origin: "AP2", Version: 1, TakenUnixNano: 1700000000456, Payload: []byte{0xff}},
	}
	return m
}

func TestSyncMsgSummariesRoundTrip(t *testing.T) {
	in := sampleSyncWithSummaries()
	var out syncMsg
	if err := decode(encode(in), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !syncEqual(&in, &out) {
		t.Fatalf("base fields differ:\n in %+v\nout %+v", in, out)
	}
	if len(out.Summaries) != len(in.Summaries) {
		t.Fatalf("summaries: got %d, want %d", len(out.Summaries), len(in.Summaries))
	}
	for i := range in.Summaries {
		a, b := in.Summaries[i], out.Summaries[i]
		if a.Origin != b.Origin || a.Version != b.Version || a.TakenUnixNano != b.TakenUnixNano {
			t.Errorf("summary %d header: got %+v, want %+v", i, b, a)
		}
		if string(a.Payload) != string(b.Payload) {
			t.Errorf("summary %d payload: got %v, want %v", i, b.Payload, a.Payload)
		}
	}
	// The decoded payload must be an independent copy, not a view into the
	// network buffer.
	blob := encode(in)
	var again syncMsg
	if err := decode(blob, &again); err != nil {
		t.Fatalf("decode: %v", err)
	}
	blob[len(blob)-1] ^= 0xff
	if string(again.Summaries[1].Payload) != string(in.Summaries[1].Payload) {
		t.Error("summary payload aliases the wire buffer")
	}
}

// TestGossipUnknownVersion: only gossipVersion is spoken. The retired
// 0x02/0x03 layouts and bytes that are no gossip payload at all are refused
// by their first byte.
func TestGossipUnknownVersion(t *testing.T) {
	blob := encode(sampleSyncWithSummaries())
	if blob[0] != gossipVersion {
		t.Fatalf("encoder writes version 0x%02x, want 0x%02x", blob[0], gossipVersion)
	}
	for _, first := range []byte{0x00, 0x02, 0x03, 0x05, 0x40, 0xff} {
		blob[0] = first
		var out syncMsg
		err := decode(blob, &out)
		if err == nil || !strings.Contains(err.Error(), "unsupported gossip version") {
			t.Fatalf("first byte %#x: err = %v, want the version error", first, err)
		}
	}
}

// TestSyncMsgFragAdsRoundTrip covers the fragment-advertisement section of
// catalog entries.
func TestSyncMsgFragAdsRoundTrip(t *testing.T) {
	in := sampleSync()
	in.Catalog[0].Frags = []FragAd{
		{ID: "league#7", Doc: "league", Nodes: 12, Version: 3},
		{ID: "league#spine", Doc: "league", Spine: true},
	}
	var out syncMsg
	if err := decode(encode(in), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Catalog) == 0 || len(out.Catalog[0].Frags) != 2 {
		t.Fatalf("frag ads did not round-trip: %+v", out.Catalog)
	}
	for i, want := range in.Catalog[0].Frags {
		if got := out.Catalog[0].Frags[i]; got != want {
			t.Errorf("frag ad %d: got %+v, want %+v", i, got, want)
		}
	}
}
