package membership

import (
	"fmt"
	"time"

	"axmltx/internal/codec"
	"axmltx/internal/p2p"
)

// Gossip payloads use the shared binary wire format: version byte, kind
// tag, varint-framed fields. Sync exchanges are the membership layer's hot
// path — every round ships the full member list and catalog both ways — so
// they get the same zero-copy treatment as the core protocol messages. One
// version is spoken; a payload opening with any other byte is rejected.
const gossipVersion = 0x04

const (
	gkSync byte = iota + 1
	gkPingReq
)

func encode(v any) []byte {
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	w.Byte(gossipVersion)
	switch m := v.(type) {
	case syncMsg:
		w.Byte(gkSync)
		w.String(string(m.From))
		w.Uvarint(uint64(len(m.Members)))
		for _, r := range m.Members {
			w.String(string(r.ID))
			w.Varint(int64(r.State))
			w.Uvarint(r.Incarnation)
			w.String(r.Addr)
		}
		w.Uvarint(uint64(len(m.Catalog)))
		for i := range m.Catalog {
			appendCatalogEntry(w, &m.Catalog[i])
		}
		w.Uvarint(uint64(len(m.Summaries)))
		for _, s := range m.Summaries {
			w.String(string(s.Origin))
			w.Uvarint(s.Version)
			w.Varint(s.TakenUnixNano)
			w.BytesPrefixed(s.Payload)
		}
	case pingReq:
		w.Byte(gkPingReq)
		w.String(string(m.Target))
	default:
		panic(fmt.Sprintf("membership: encode: unknown gossip type %T", v))
	}
	return w.Finish()
}

func decode(b []byte, v any) error {
	r := codec.NewReader(b)
	if ver := r.Byte(); r.Err() == nil && ver != gossipVersion {
		return fmt.Errorf("membership: unsupported gossip version %d (want %d)", ver, gossipVersion)
	}
	kind := r.Byte()
	var want byte
	switch m := v.(type) {
	case *syncMsg:
		want = gkSync
		if kind == want {
			m.From = p2p.PeerID(r.String())
			n := r.Count(4)
			for i := 0; i < n && r.Err() == nil; i++ {
				m.Members = append(m.Members, memberRecord{
					ID:          p2p.PeerID(r.String()),
					State:       int(r.Varint()),
					Incarnation: r.Uvarint(),
					Addr:        r.String(),
				})
			}
			n = r.Count(5)
			for i := 0; i < n && r.Err() == nil; i++ {
				var e CatalogEntry
				readCatalogEntry(r, &e)
				m.Catalog = append(m.Catalog, e)
			}
			n = r.Count(4) // origin + version + taken + payload prefix
			for i := 0; i < n && r.Err() == nil; i++ {
				s := PeerSummary{
					Origin:        p2p.PeerID(r.String()),
					Version:       r.Uvarint(),
					TakenUnixNano: r.Varint(),
				}
				if p := r.BytesPrefixed(); len(p) > 0 {
					s.Payload = append([]byte(nil), p...)
				}
				m.Summaries = append(m.Summaries, s)
			}
		}
	case *pingReq:
		want = gkPingReq
		if kind == want {
			m.Target = p2p.PeerID(r.String())
		}
	default:
		return fmt.Errorf("membership: decode: unknown gossip type %T", v)
	}
	if r.Err() == nil && kind != want {
		return fmt.Errorf("membership: decode %T: payload has kind tag %d, want %d", v, kind, want)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("membership: decode %T: %w", v, err)
	}
	return nil
}

// appendCatalogEntry encodes one advertisement. Announced travels as
// UnixNano behind a presence flag, so the zero time (no announcement yet)
// round-trips as zero and IsZero keeps working on the receiving side.
func appendCatalogEntry(w *codec.Writer, e *CatalogEntry) {
	w.String(string(e.Origin))
	w.Uvarint(e.Version)
	w.Strings(e.Docs)
	w.Strings(e.Services)
	if e.Announced.IsZero() {
		w.Bool(false)
	} else {
		w.Bool(true)
		w.Varint(e.Announced.UnixNano())
	}
	w.Uvarint(uint64(len(e.Calls)))
	for _, ad := range e.Calls {
		w.String(ad.Key)
		w.String(ad.Service)
		w.Bool(ad.Inflight)
		w.Varint(ad.FetchedUnixNano)
		w.Varint(ad.WindowNanos)
	}
	w.Uvarint(uint64(len(e.Frags)))
	for _, ad := range e.Frags {
		w.String(ad.ID)
		w.String(ad.Doc)
		w.Varint(int64(ad.Nodes))
		w.Uvarint(ad.Version)
		w.Bool(ad.Spine)
	}
}

func readCatalogEntry(r *codec.Reader, e *CatalogEntry) {
	e.Origin = p2p.PeerID(r.String())
	e.Version = r.Uvarint()
	e.Docs = r.Strings()
	e.Services = r.Strings()
	if r.Bool() {
		e.Announced = time.Unix(0, r.Varint())
	}
	n := r.Count(5) // minimal ad: 2 empty strings + flag + 2 varints
	for i := 0; i < n && r.Err() == nil; i++ {
		e.Calls = append(e.Calls, CallAd{
			Key:             r.String(),
			Service:         r.String(),
			Inflight:        r.Bool(),
			FetchedUnixNano: r.Varint(),
			WindowNanos:     r.Varint(),
		})
	}
	n = r.Count(5) // minimal ad: 2 empty strings + 2 varints + flag
	for i := 0; i < n && r.Err() == nil; i++ {
		e.Frags = append(e.Frags, FragAd{
			ID:      r.String(),
			Doc:     r.String(),
			Nodes:   int(r.Varint()),
			Version: r.Uvarint(),
			Spine:   r.Bool(),
		})
	}
}
