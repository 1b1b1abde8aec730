package p2p

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"axmltx/internal/codec"
)

// wireFrame is the unit on a TCP connection: a message plus correlation
// metadata for request/response matching.
type wireFrame struct {
	ID       uint64
	Response bool
	OneWay   bool
	Msg      Message
}

// A frame on the socket is
//
//	[u32 big-endian body length]
//	[frameVersion][flags][uvarint ID]
//	[From To Kind Txn Subject][Payload, length-prefixed][Err Code Span]
//
// with strings and the payload in internal/codec's varint framing. It is
// the only format a connection speaks: a length above maxFrame, another
// version byte, an unknown flag bit or bytes left over after Span close the
// connection.
const (
	frameVersion = 0x01

	flagResponse = 1 << 0
	flagOneWay   = 1 << 1

	frameHeaderLen = 4
	// maxFrame bounds a frame body. It is checked before the body is
	// allocated, so a corrupt length prefix cannot ask for gigabytes; the
	// largest real message (a whole-document fragment ship) is far below it.
	maxFrame = 64 << 20
)

var errFrame = errors.New("p2p: malformed frame")

// appendFrame appends f, length header included, to w.
func appendFrame(w *codec.Writer, f *wireFrame) error {
	start := w.Len()
	w.Raw(make([]byte, frameHeaderLen))
	w.Byte(frameVersion)
	var flags byte
	if f.Response {
		flags |= flagResponse
	}
	if f.OneWay {
		flags |= flagOneWay
	}
	w.Byte(flags)
	w.Uvarint(f.ID)
	m := &f.Msg
	w.String(string(m.From))
	w.String(string(m.To))
	w.String(m.Kind)
	w.String(m.Txn)
	w.String(m.Subject)
	w.BytesPrefixed(m.Payload)
	w.String(m.Err)
	w.String(m.Code)
	w.String(m.Span)
	n := w.Len() - start - frameHeaderLen
	if n > maxFrame {
		return fmt.Errorf("p2p: %s frame of %d bytes exceeds the %d-byte limit", m.Kind, n, maxFrame)
	}
	binary.BigEndian.PutUint32(w.Bytes()[start:], uint32(n))
	return nil
}

// decodeFrame parses a frame body. Strings and the payload of the returned
// message alias body, which the caller allocates per frame and never reuses.
func decodeFrame(body []byte) (*wireFrame, error) {
	r := codec.NewReader(body)
	if v := r.Byte(); r.Err() == nil && v != frameVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", errFrame, v, frameVersion)
	}
	flags := r.Byte()
	if flags&^(flagResponse|flagOneWay) != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", errFrame, flags)
	}
	f := &wireFrame{
		Response: flags&flagResponse != 0,
		OneWay:   flags&flagOneWay != 0,
		ID:       r.Uvarint(),
	}
	m := &f.Msg
	m.From = PeerID(r.String())
	m.To = PeerID(r.String())
	m.Kind = r.String()
	m.Txn = r.String()
	m.Subject = r.String()
	m.Payload = r.BytesPrefixed()
	m.Err = r.String()
	m.Code = r.String()
	m.Span = r.String()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", errFrame, err)
	}
	return f, nil
}

// readFrame reads one frame off a connection.
func readFrame(br *bufio.Reader) (*wireFrame, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("%w: length %d exceeds %d", errFrame, n, maxFrame)
	}
	if _, err := br.Discard(frameHeaderLen); err != nil {
		return nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return decodeFrame(body)
}

// TCPTransport is a Transport over real TCP connections, used by
// cmd/axmlpeer to run the system as separate processes. Peer addresses are
// registered explicitly (a static directory), keeping the focus on the
// transactional protocols rather than discovery.
type TCPTransport struct {
	self PeerID
	ln   net.Listener

	mu      sync.Mutex
	addrs   map[PeerID]string
	conns   map[PeerID]*tcpConn
	dials   map[PeerID]*pendingDial
	h       Handler
	pending map[uint64]*tcpPending
	nextID  atomic.Uint64
	closed  bool
	// dialCount counts outbound dial attempts (for tests asserting that
	// concurrent requests to one peer share a single dial).
	dialCount atomic.Int64
}

// pendingDial deduplicates concurrent dials to one peer: the first caller
// dials while the rest wait on done, then all share the outcome.
type pendingDial struct {
	done chan struct{}
	c    *tcpConn
	err  error
}

// tcpPending is an in-flight request: the channel its response completes
// and the connection it was written on, so that when that connection dies
// the requester is failed with a typed ErrUnreachable instead of hanging
// until its context expires.
type tcpPending struct {
	ch chan *wireFrame
	c  *tcpConn
}

// ListenTCP starts a transport for peer self on addr (e.g. "127.0.0.1:0").
func ListenTCP(self PeerID, addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		self:    self,
		ln:      ln,
		addrs:   make(map[PeerID]string),
		conns:   make(map[PeerID]*tcpConn),
		dials:   make(map[PeerID]*pendingDial),
		pending: make(map[uint64]*tcpPending),
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// AddPeer registers the address of a remote peer.
func (t *TCPTransport) AddPeer(id PeerID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// Self implements Transport.
func (t *TCPTransport) Self() PeerID { return t.self }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.h = h
}

// Send implements Transport.
func (t *TCPTransport) Send(ctx context.Context, to PeerID, msg *Message) error {
	msg.From, msg.To = t.self, to
	conn, err := t.conn(to)
	if err != nil {
		return err
	}
	return conn.write(&wireFrame{ID: t.nextID.Add(1), OneWay: true, Msg: *msg})
}

// Request implements Transport.
func (t *TCPTransport) Request(ctx context.Context, to PeerID, msg *Message) (*Message, error) {
	msg.From, msg.To = t.self, to
	conn, err := t.conn(to)
	if err != nil {
		return nil, err
	}
	id := t.nextID.Add(1)
	ch := make(chan *wireFrame, 1)
	t.mu.Lock()
	t.pending[id] = &tcpPending{ch: ch, c: conn}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.pending, id)
		t.mu.Unlock()
	}()
	if err := conn.write(&wireFrame{ID: id, Msg: *msg}); err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case f, ok := <-ch:
		if !ok {
			// The connection died while the request was in flight: the peer
			// crashed, closed, or the link broke — a disconnection in the
			// protocol's terms, reported with the typed error so
			// errors.Is(err, core.ErrPeerDown) holds end to end.
			return nil, fmt.Errorf("%w: %s (connection lost mid-request)", ErrUnreachable, to)
		}
		resp := f.Msg
		return &resp, nil
	}
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*tcpConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	return t.ln.Close()
}

func (t *TCPTransport) handler() Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h
}

// conn returns (dialing if necessary) the connection to a peer. Concurrent
// callers for the same peer share a single dial: without deduplication, a
// burst of requests (e.g. one materialization round fanning out) would open
// one TCP connection per request and discard all but one after a wasted
// hello round trip.
func (t *TCPTransport) conn(to PeerID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	if pd, ok := t.dials[to]; ok {
		t.mu.Unlock()
		<-pd.done
		return pd.c, pd.err
	}
	addr, ok := t.addrs[to]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (no address registered)", ErrUnreachable, to)
	}
	pd := &pendingDial{done: make(chan struct{})}
	t.dials[to] = pd
	t.mu.Unlock()

	c, err := t.dialPeer(to, addr)

	t.mu.Lock()
	delete(t.dials, to)
	if err == nil && t.closed {
		err = ErrClosed
	}
	if err != nil {
		t.mu.Unlock()
		if c != nil {
			c.close()
		}
		pd.err = err
		close(pd.done)
		return nil, err
	}
	if exist, ok := t.conns[to]; ok {
		// An inbound connection from the same peer registered meanwhile;
		// prefer it and drop ours.
		t.mu.Unlock()
		c.close()
		pd.c = exist
		close(pd.done)
		return exist, nil
	}
	t.conns[to] = c
	t.mu.Unlock()
	go c.readLoop()
	pd.c = c
	close(pd.done)
	return c, nil
}

// dialPeer opens and identifies a new outbound connection.
func (t *TCPTransport) dialPeer(to PeerID, addr string) (*tcpConn, error) {
	t.dialCount.Add(1)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
	}
	c := newTCPConn(t, raw)
	// Identify ourselves so the remote can map the connection to a peer.
	if err := c.write(&wireFrame{OneWay: true, Msg: Message{Kind: "hello", From: t.self}}); err != nil {
		c.close()
		return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
	}
	return c, nil
}

func (t *TCPTransport) acceptLoop() {
	for {
		raw, err := t.ln.Accept()
		if err != nil {
			return
		}
		c := newTCPConn(t, raw)
		go c.readLoop()
	}
}

// dropConn removes a dead connection so the next Send re-dials, and fails
// every request still waiting on that connection (closing the channel makes
// Request return a typed ErrUnreachable).
func (t *TCPTransport) dropConn(c *tcpConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, cc := range t.conns {
		if cc == c {
			delete(t.conns, id)
		}
	}
	for id, p := range t.pending {
		if p.c == c {
			delete(t.pending, id)
			close(p.ch)
		}
	}
}

// dispatch routes an incoming frame: responses complete pending requests,
// requests run the handler (in the read goroutine's own worker).
func (t *TCPTransport) dispatch(c *tcpConn, f *wireFrame) {
	if f.Msg.Kind == "hello" {
		t.mu.Lock()
		if _, ok := t.conns[f.Msg.From]; !ok {
			t.conns[f.Msg.From] = c
		}
		t.mu.Unlock()
		return
	}
	if f.Response {
		// Pop the entry under the lock so a racing dropConn cannot close the
		// channel this send targets.
		t.mu.Lock()
		p := t.pending[f.ID]
		if p != nil {
			delete(t.pending, f.ID)
		}
		t.mu.Unlock()
		if p != nil {
			p.ch <- f
		}
		return
	}
	go func() {
		h := t.handler()
		var resp *Message
		var err error
		if h == nil {
			err = ErrNoHandler
		} else {
			resp, err = h(context.Background(), &f.Msg)
		}
		if f.OneWay {
			return
		}
		out := &wireFrame{ID: f.ID, Response: true}
		if resp != nil {
			out.Msg = *resp
		}
		if err != nil {
			out.Msg.Err = err.Error()
		}
		out.Msg.From, out.Msg.To = t.self, f.Msg.From
		_ = c.write(out)
	}()
}

type tcpConn struct {
	t    *TCPTransport
	raw  net.Conn
	wmu  sync.Mutex
	once sync.Once
}

func newTCPConn(t *TCPTransport, raw net.Conn) *tcpConn {
	return &tcpConn{t: t, raw: raw}
}

// write encodes f outside the lock and sends it with one Write under it:
// one syscall per frame, and frames of concurrent senders never interleave.
func (c *tcpConn) write(f *wireFrame) error {
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	if err := appendFrame(w, f); err != nil {
		return err
	}
	c.wmu.Lock()
	_, err := c.raw.Write(w.Bytes())
	c.wmu.Unlock()
	if err != nil {
		c.close()
		if errors.Is(err, net.ErrClosed) {
			return ErrUnreachable
		}
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return nil
}

func (c *tcpConn) readLoop() {
	br := bufio.NewReader(c.raw)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.close()
			return
		}
		c.t.dispatch(c, f)
	}
}

func (c *tcpConn) close() {
	c.once.Do(func() {
		_ = c.raw.Close()
		c.t.dropConn(c)
	})
}
