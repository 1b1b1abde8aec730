package sim

import (
	"context"
	"time"

	"axmltx/internal/core"
	"axmltx/internal/p2p"
	"axmltx/internal/services"
	"axmltx/internal/wal"
)

// E8Row is one data point of experiment E8 (disconnection detection
// latency): how quickly each detector of §3.3 notices a dead peer, on a
// network with non-zero message latency.
type E8Row struct {
	Detector  string // "active-send", "ping", "stream-silence"
	Latency   time.Duration
	PingEvery time.Duration
	Detected  bool
	Elapsed   time.Duration
}

// RunE8 measures the time from a peer's disconnection to its detection by
// the given mechanism:
//
//   - "active-send": the detector learns from a failed send (the child
//     returning results — §3.3 case b detection);
//   - "ping": a keep-alive prober with the given interval (case c);
//   - "stream-silence": a stream watcher with deadline 2×interval (case d).
func RunE8(detector string, latency, interval time.Duration) E8Row {
	net := p2p.NewNetwork(latency)
	a := core.NewPeer(net.Join("A"), wal.NewMemory(), core.Options{})
	b := core.NewPeer(net.Join("B"), wal.NewMemory(), core.Options{})
	_ = b

	row := E8Row{Detector: detector, Latency: latency, PingEvery: interval}
	net.Disconnect("B")
	start := time.Now()

	switch detector {
	case "active-send":
		err := a.Transport().Send(context.Background(), "B", &p2p.Message{Kind: p2p.KindResult})
		row.Detected = err != nil
	case "ping":
		detected := make(chan struct{}, 1)
		pinger := p2p.NewPinger(a.Transport(), interval, 1, func(p2p.PeerID) {
			select {
			case detected <- struct{}{}:
			default:
			}
		})
		pinger.Watch("B")
		pinger.Start()
		select {
		case <-detected:
			row.Detected = true
		case <-time.After(interval*10 + time.Second):
		}
		pinger.Stop()
	case "stream-silence":
		silent := make(chan struct{}, 1)
		w := services.NewStreamWatcher(2*interval, func() {
			select {
			case silent <- struct{}{}:
			default:
			}
		})
		w.Start()
		select {
		case <-silent:
			row.Detected = true
		case <-time.After(interval*10 + time.Second):
		}
		w.Stop()
	default:
		panic("sim: unknown detector " + detector)
	}
	row.Elapsed = time.Since(start)
	return row
}
