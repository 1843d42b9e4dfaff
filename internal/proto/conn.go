package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds a single message to keep a malformed peer from forcing a
// huge allocation.
const maxFrame = 16 << 20

// Conn is a message-oriented connection: framed XML messages over any
// stream. It serialises writes; reads must come from a single goroutine.
type Conn struct {
	rw io.ReadWriter

	// wbuf is the write-side scratch, reused under wr: a frame is encoded
	// into it behind room for its header and leaves in one Write.
	wr   sync.Mutex
	wbuf bytes.Buffer

	// rhdr and readBuf are the read-side scratch: one header, one payload
	// buffer grown geometrically, reused across frames by the single
	// reading goroutine. Decode copies what it keeps, so reuse is safe.
	rhdr    [frameHeaderLen]byte
	readBuf []byte
	// names interns the From and To values read here (scanner.name).
	names map[string]string
}

// maxNames bounds a connection's intern table; past it, a new name is
// copied per message.
const maxNames = 1024

// NewConn wraps a stream.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw, names: make(map[string]string)} }

// frameHeaderLen is the size of a frame's big-endian length prefix.
const frameHeaderLen = 4

// Send encodes one message into the connection's write buffer and writes
// it as one frame. In the steady state it allocates nothing.
//
//hot:path
func (c *Conn) Send(m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	c.wr.Lock()
	defer c.wr.Unlock()
	c.wbuf.Reset()
	var hdr [frameHeaderLen]byte
	c.wbuf.Write(hdr[:])
	m.writeXML(&c.wbuf)
	return c.writeFrame(c.wbuf.Bytes())
}

// writeFrame writes one length-prefixed frame. The payload arrives with
// frameHeaderLen bytes staged in front of it, which writeFrame fills in, so
// that header and payload are a single Write: one syscall, one TCP segment.
// Callers must hold c.wr.
func (c *Conn) writeFrame(frame []byte) error {
	n := len(frame) - frameHeaderLen
	if n > maxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := c.rw.Write(frame)
	return err
}

// Recv reads and decodes one message, which is the caller's: one
// allocation holds it and its status. The frame lands in a per-connection
// buffer reused across messages, and the message's strings never alias it.
//
//hot:path
func (c *Conn) Recv() (*Message, error) {
	data, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	var in inbound
	if err := in.decode(data, c.names); err != nil {
		return nil, err
	}
	return &in.m, nil
}

// readFrame reads one frame into the connection's reusable buffer.
func (c *Conn) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(c.rw, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(c.rhdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	if cap(c.readBuf) < n {
		grown := 2 * cap(c.readBuf)
		if grown < n {
			grown = n
		}
		c.readBuf = make([]byte, grown) //lint:allow hotalloc buffer growth is geometric, amortised over the connection's frames
	}
	data := c.readBuf[:n]
	if _, err := io.ReadFull(c.rw, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Close closes the underlying stream if it is closable.
func (c *Conn) Close() error {
	if closer, ok := c.rw.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

// Handler processes one request message and returns the response (nil for
// no response beyond the ack the server generates). A connection's
// requests share one storage, so m and what it points to are valid only
// for the call: copy what you keep (a string never changes).
type Handler func(m *Message) (*Message, error)

// Server accepts framed-XML connections and dispatches each incoming
// message to a handler. Every request receives exactly one response: the
// handler's message, or an ack (with the handler error, if any).
type Server struct {
	name    string
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer starts a server listening on addr ("host:0" picks a free port).
func NewServer(name, addr string, handler Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		name:    name,
		ln:      ln,
		handler: handler,
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	c := NewConn(conn)
	var in inbound
	var ack Message
	req := &in.m
	for {
		data, err := c.readFrame()
		if err != nil || in.decode(data, c.names) != nil {
			return
		}
		resp, herr := s.handler(req)
		if resp == nil {
			ack = ackOf(s.name, req, herr)
			resp = &ack
		} else {
			resp.Seq = req.Seq
			resp.To = req.From
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// Close stops accepting and closes every open connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Client is a request/response client over one TCP connection. It is safe
// for concurrent use; requests are serialised.
type Client struct {
	name string
	addr string
	opts Options

	mu     sync.Mutex
	conn   *Conn
	raw    net.Conn
	seq    uint64
	closed bool
}

// Dial connects a client named name (used as the From field) to addr, with
// a 5-second dial timeout; a call that fails on the wire re-dials once.
func Dial(name, addr string) (*Client, error) {
	return DialOptions(name, addr, Options{})
}

// DialOptions is Dial with the client's calls, retries and re-dials
// counted on opts.Metrics.
func DialOptions(name, addr string, opts Options) (*Client, error) {
	c := &Client{name: name, addr: addr, opts: opts}
	if err := c.reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

// dialTimeout bounds each TCP dial.
const dialTimeout = 5 * time.Second

func (c *Client) reconnect() error {
	if c.closed {
		return fmt.Errorf("proto: client closed")
	}
	raw, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return err
	}
	if c.raw != nil {
		c.raw.Close()
	}
	c.raw = raw
	c.conn = NewConn(raw)
	return nil
}

// Call sends a request and waits for its response. A transport failure
// re-dials once and resends; a remote handler error is returned at once,
// since the request was already processed.
func (c *Client) Call(m *Message) (*Message, error) {
	if c.opts.Metrics != nil {
		start := time.Now() //lint:allow determinism call_seconds is a wall-clock metric by contract (in no report)
		defer func() {
			c.opts.Metrics.Histogram(MetricCallSeconds).Observe(time.Since(start).Seconds()) //lint:allow determinism call_seconds is a wall-clock metric by contract
		}()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	m.Seq = c.seq
	m.From = c.name
	resp, err := c.callOnce(m)
	if err == nil || resp != nil {
		// Success, or a remote handler error: never retried.
		return resp, err
	}
	c.opts.Metrics.Counter(CtrRetries).Inc()
	if rerr := c.reconnect(); rerr != nil {
		return nil, fmt.Errorf("proto: call failed (%v) and reconnect failed: %w", err, rerr)
	}
	c.opts.Metrics.Counter(CtrReconnects).Inc()
	return c.callOnce(m)
}

func (c *Client) callOnce(m *Message) (*Message, error) {
	if c.conn == nil {
		return nil, fmt.Errorf("proto: client closed")
	}
	if err := c.conn.Send(m); err != nil {
		return nil, err
	}
	resp, err := c.conn.Recv()
	if err != nil {
		return nil, err
	}
	if resp.Type == TypeAck && resp.Error != "" {
		return resp, fmt.Errorf("proto: remote error: %s", resp.Error)
	}
	return resp, nil
}

// Close closes the connection. A closed client fails all further calls
// (reconnects included).
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.conn = nil
	raw := c.raw
	c.raw = nil
	c.mu.Unlock()
	if raw != nil {
		return raw.Close()
	}
	return nil
}
