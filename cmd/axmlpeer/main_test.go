package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
)

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startPeer runs the peer of s until stop is called, or the test ends;
// stop waits for run to return and fails the test if run failed.
func startPeer(t *testing.T, s settings) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, s) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("run: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// client is a throw-away TCP peer that drives AP1 at addr, as axmlquery
// does. It waits until AP1 serves.
func client(t *testing.T, addr string) *core.Peer {
	t.Helper()
	tr, err := p2p.ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.AddPeer("AP1", addr)
	c := core.NewPeer(tr, wal.NewMemory(), core.Options{})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := tr.Request(context.Background(), "AP1", &p2p.Message{Kind: p2p.KindAdmin, Subject: "documents"})
		if err == nil && resp.Err == "" {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("AP1 never served: %v %v", err, resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// call runs service at AP1 in its own transaction and commits it.
func call(t *testing.T, c *core.Peer, service string, params map[string]string) []string {
	t.Helper()
	ctx := context.Background()
	txc := c.Begin()
	out, err := c.Call(ctx, txc, "AP1", service, params)
	if err != nil {
		t.Fatalf("%s: %v", service, err)
	}
	if err := c.Commit(ctx, txc); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunRestartKeepsCommittedState: a peer started on -dir commits an
// update over TCP, stops, starts again on the same -dir and serves the
// committed value, not the configured one.
func TestRunRestartKeepsCommittedState(t *testing.T) {
	dir := t.TempDir()
	addr := freeAddr(t)
	config := filepath.Join(dir, "ap1.xml")
	if err := os.WriteFile(config, []byte(fmt.Sprintf(`<peer id="AP1" listen="%s">
  <document name="D.xml"><D><v>config</v></D></document>
  <queryService name="get" resultName="v" doc="D.xml">Select d/v from d in D</queryService>
  <updateService name="set" doc="D.xml" params="value!">&lt;action type="replace"&gt;&lt;data&gt;&lt;v&gt;$value&lt;/v&gt;&lt;/data&gt;&lt;location&gt;Select d/v from d in D;&lt;/location&gt;&lt;/action&gt;</updateService>
</peer>`, addr)), 0o644); err != nil {
		t.Fatal(err)
	}
	s := settings{config: config, dir: filepath.Join(dir, "state")}

	stop := startPeer(t, s)
	c := client(t, addr)
	call(t, c, "set", map[string]string{"value": "committed"})
	// The read waits for the update's lock, so the commit has reached AP1.
	if got := call(t, c, "get", nil); len(got) != 1 || got[0] != "<v>committed</v>" {
		t.Fatalf("before restart: get = %q", got)
	}
	stop()

	startPeer(t, s)
	if got := call(t, client(t, addr), "get", nil); len(got) != 1 || got[0] != "<v>committed</v>" {
		t.Fatalf("after restart: get = %q, want the committed value", got)
	}
}
