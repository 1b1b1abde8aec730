package axmltx_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"axmltx"
)

// newPeer builds a test peer, failing the test on construction errors.
func newPeer(t *testing.T, tr axmltx.Transport, opts ...axmltx.Option) *axmltx.Peer {
	t.Helper()
	p, err := axmltx.NewPeer(tr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPublicAPIQuickstart exercises the README quick-start flow through the
// public package only.
func TestPublicAPIQuickstart(t *testing.T) {
	net := axmltx.NewNetwork(0)
	ap1 := newPeer(t, net.Join("AP1"), axmltx.WithSuper())
	ap2 := newPeer(t, net.Join("AP2"))

	if err := ap2.HostDocument("Points.xml",
		`<Points><row player="Roger Federer"><points>475</points></row></Points>`); err != nil {
		t.Fatal(err)
	}
	ap2.HostQueryService(axmltx.Descriptor{
		Name: "getPoints", ResultName: "points", TargetDocument: "Points.xml",
		Params: []axmltx.ParamDef{{Name: "name", Required: true}},
	}, `Select r/points from r in Points//row where r/@player = $name`)

	if err := ap1.HostDocument("ATPList.xml", `<ATPList><player rank="1">
	  <name><lastname>Federer</lastname></name>
	  <axml:sc mode="replace" methodName="getPoints" serviceURL="AP2">
	    <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
	  </axml:sc></player></ATPList>`); err != nil {
		t.Fatal(err)
	}

	tx := ap1.Begin()
	res, err := ap1.Exec(bg, tx, axmltx.NewQueryAction(
		axmltx.MustQuery(`Select p/points from p in ATPList//player`)))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.Strings(); len(got) != 1 || got[0] != "475" {
		t.Fatalf("result = %v", got)
	}
	if err := ap1.Commit(bg, tx); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIActionsAndAbort(t *testing.T) {
	net := axmltx.NewNetwork(0)
	ap1 := newPeer(t, net.Join("AP1"))
	if err := ap1.HostDocument("D.xml", `<D><item k="1"><v>old</v></item></D>`); err != nil {
		t.Fatal(err)
	}
	before, _ := ap1.Store().Snapshot("D.xml")

	tx := ap1.Begin()
	if _, err := ap1.Exec(bg, tx, axmltx.NewInsertAction(
		axmltx.MustQuery(`Select d from d in D`), `<item k="2"/>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ap1.Exec(bg, tx, axmltx.NewReplaceAction(
		axmltx.MustQuery(`Select i/v from i in D//item where i/@k = 1`), `<v>new</v>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ap1.Exec(bg, tx, axmltx.NewDeleteAction(
		axmltx.MustQuery(`Select i from i in D//item where i/@k = 2`))); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Abort(bg, tx); err != nil {
		t.Fatal(err)
	}
	after, _ := ap1.Store().Snapshot("D.xml")
	if !after.Equal(before) {
		t.Fatal("public-API abort did not restore the document")
	}
}

func TestPublicAPIActionWireForm(t *testing.T) {
	a := axmltx.NewDeleteAction(axmltx.MustQuery(`Select p/citizenship from p in ATPList//player`))
	back, err := axmltx.ParseAction(a.XML())
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != a.Type {
		t.Fatal("wire round trip")
	}
}

func TestPublicAPIFaultsAndHooks(t *testing.T) {
	net := axmltx.NewNetwork(0)
	ap1 := newPeer(t, net.Join("AP1"))
	ap2 := newPeer(t, net.Join("AP2"))
	ap2.HostService(axmltx.NewFuncService(axmltx.Descriptor{Name: "f", ResultName: "x"},
		func(ctx context.Context, params map[string]string) ([]string, error) {
			return nil, &axmltx.Fault{Name: "boom"}
		}))
	tx := ap1.Begin()
	_, err := ap1.Call(bg, tx, "AP2", "f", nil)
	if err == nil || axmltx.FaultNameOf(err) != "boom" {
		t.Fatalf("err = %v", err)
	}
	if err := ap1.Abort(bg, tx); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDurableLog(t *testing.T) {
	dir := t.TempDir()
	setup := func(p *axmltx.Peer) error { return p.HostDocument("D.xml", `<D/>`) }
	ap1, err := axmltx.Open(dir, axmltx.NewNetwork(0).Join("AP1"), setup)
	if err != nil {
		t.Fatal(err)
	}
	tx := ap1.Begin()
	if _, err := ap1.Exec(bg, tx, axmltx.NewInsertAction(
		axmltx.MustQuery(`Select d from d in D`), `<x/>`)); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Commit(bg, tx); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Close(); err != nil {
		t.Fatal(err)
	}
	// The reopened peer holds the records and the committed document.
	re, err := axmltx.Open(dir, axmltx.NewNetwork(0).Join("AP1"), setup)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if recs := re.Store().Log().TxnRecords(tx.ID); len(recs) < 3 { // begin, insert, commit
		t.Fatalf("recovered %d records", len(recs))
	}
	res, err := re.Exec(bg, re.Begin(), axmltx.NewQueryAction(axmltx.MustQuery(`Select d/x from d in D`)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Query.Items); n != 1 {
		t.Fatalf("reopened D.xml has %d committed <x/>, want 1", n)
	}
}

func TestPublicAPISegmentedLog(t *testing.T) {
	dir := t.TempDir()
	ring := axmltx.NewRing(0)
	reg := axmltx.NewRegistry()
	ap1, err := axmltx.Open(dir, axmltx.NewNetwork(0).Join("AP1"),
		func(p *axmltx.Peer) error { return p.HostDocument("D.xml", `<D/>`) },
		axmltx.WithWALSegmentSize(100),
		axmltx.WithTracer(ring),
		axmltx.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tx := ap1.Begin()
		if _, err := ap1.Exec(bg, tx, axmltx.NewInsertAction(
			axmltx.MustQuery(`Select d from d in D`), `<x/>`)); err != nil {
			t.Fatal(err)
		}
		if err := ap1.Commit(bg, tx); err != nil {
			t.Fatal(err)
		}
	}
	seg, ok := ap1.Store().Log().(*axmltx.SegmentedLog)
	if !ok {
		t.Fatalf("Open's log is %T, want *SegmentedLog", ap1.Store().Log())
	}
	if seg.Segments() < 2 {
		t.Fatalf("Segments() = %d after 6 txns at 100 bytes/segment", seg.Segments())
	}
	// Checkpoint with a transaction still in flight: its records are the
	// live state the snapshot must carry across compaction and restart.
	live := ap1.Begin()
	if _, err := ap1.Exec(bg, live, axmltx.NewInsertAction(
		axmltx.MustQuery(`Select d from d in D`), `<y/>`)); err != nil {
		t.Fatal(err)
	}
	if err := seg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	removed, err := seg.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Compact removed no segments despite a fresh checkpoint")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `axml_wal_segments{peer="AP1"}`) {
		t.Fatalf("/metrics misses the segment gauge:\n%s", sb.String())
	}
	var compacts int
	for _, s := range ring.Spans() {
		if s.Kind == axmltx.KindCompact {
			compacts++
		}
	}
	if compacts == 0 {
		t.Fatal("no wal-compact span emitted")
	}
	if err := ap1.Abort(bg, live); err != nil {
		t.Fatal(err)
	}
	if err := ap1.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := axmltx.Open(dir, axmltx.NewNetwork(0).Join("AP1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if recs := re.Store().Log().TxnRecords(live.ID); len(recs) == 0 {
		t.Fatal("reopened segmented log lost the in-flight transaction")
	}
}

// TestPublicAPIBadOption checks that NewPeer and Open reject invalid option
// values, and WAL knobs without a directory, with a typed error instead of
// constructing a misconfigured peer.
func TestPublicAPIBadOption(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		dir  string // Open's; "" is NewPeer
		opts []axmltx.Option
	}{
		{"WithCallCache(0)", "", []axmltx.Option{axmltx.WithCallCache(0)}},
		{"WithCacheTTL(-1s)", "", []axmltx.Option{axmltx.WithCacheTTL(-time.Second)}},
		{"WithLockTimeout(-1s)", "", []axmltx.Option{axmltx.WithLockTimeout(-time.Second)}},
		{"WithWALSegmentSize without a dir", "", []axmltx.Option{axmltx.WithWALSegmentSize(1 << 20)}},
		{"WithWALCheckpointEvery without a dir", "", []axmltx.Option{axmltx.WithWALCheckpointEvery(100)}},
		{"WithWALSegmentSize(-1)", dir, []axmltx.Option{axmltx.WithWALSegmentSize(-1)}},
		{"WithWALCheckpointEvery(-1)", dir, []axmltx.Option{axmltx.WithWALCheckpointEvery(-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.dir == "" {
				_, err = axmltx.NewPeer(axmltx.NewNetwork(0).Join("AP1"), tc.opts...)
			} else {
				_, err = axmltx.Open(tc.dir, axmltx.NewNetwork(0).Join("AP1"), nil, tc.opts...)
			}
			if !errors.Is(err, axmltx.ErrBadOption) {
				t.Fatalf("err = %v, want ErrBadOption", err)
			}
		})
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("a rejected configuration left files in the directory: %v", files)
	}
	p, err := axmltx.Open(dir, axmltx.NewNetwork(0).Join("AP1"), nil,
		axmltx.WithWALSegmentSize(1<<20), axmltx.WithWALCheckpointEvery(100))
	if err != nil {
		t.Fatalf("Open with both WAL knobs: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIScheduler(t *testing.T) {
	net := axmltx.NewNetwork(0)
	ap1 := newPeer(t, net.Join("AP1"))
	ap1.HostService(axmltx.StaticService(axmltx.Descriptor{Name: "tick", ResultName: "t"}, `<t/>`))
	if err := ap1.HostDocument("Feed.xml",
		`<Feed><axml:sc mode="merge" methodName="tick" frequency="1ms"/></Feed>`); err != nil {
		t.Fatal(err)
	}
	s := ap1.StartScheduler(time.Hour)
	defer s.Stop()
	s.RunDue(time.Now())
	if s.Runs() != 1 {
		t.Fatalf("runs = %d", s.Runs())
	}
	doc, _ := ap1.Store().Snapshot("Feed.xml")
	var b strings.Builder
	for _, n := range doc.Root().Children() {
		b.WriteString(n.Name())
	}
	if !strings.Contains(b.String(), "axml:sc") {
		t.Fatal("document shape broken")
	}
}
