package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoresched/internal/metrics"
)

func TestConnRecvPeerClosesMidFrame(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		// Advertise a 10-byte frame, deliver 2 bytes, hang up.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 10)
		server.Write(hdr[:])
		server.Write([]byte("xy"))
		server.Close()
	}()
	c := NewConn(client)
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv accepted a truncated frame")
	}
}

func TestConnRecvOversizedHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	c := NewConn(&buf)
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv accepted an oversized frame header")
	}
}

func TestConnSendOnDeadConnection(t *testing.T) {
	client, server := net.Pipe()
	server.Close()
	c := NewConn(client)
	if err := c.Send(statusMsg("ws1")); err == nil {
		t.Fatal("Send on a dead connection succeeded")
	}
}

func TestClientCallTimeoutOnSilentServer(t *testing.T) {
	// A raw listener that accepts but never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	cli, err := DialOptions("ws1", ln.Addr().String(), Options{
		CallTimeout: 50 * time.Millisecond,
		Retries:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	if _, err := cli.Call(statusMsg("ws1")); err == nil {
		t.Fatal("Call against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Call took %v; CallTimeout did not bound it", elapsed)
	}
}

func TestClientRetriesWithBackoffAfterRestart(t *testing.T) {
	mreg := metrics.NewRegistry()
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := DialOptions("ws1", addr, Options{
		CallTimeout: time.Second,
		Retries:     3,
		Backoff:     time.Millisecond,
		Jitter:      0.5,
		Seed:        42,
		Metrics:     mreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(statusMsg("ws1")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2, err := NewServer("registry", addr, func(m *Message) (*Message, error) { return nil, nil })
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := cli.Call(statusMsg("ws1")); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if mreg.Counter(CtrRetries).Value() == 0 {
		t.Fatal("no retry counted")
	}
	if mreg.Counter(CtrReconnects).Value() == 0 {
		t.Fatal("no reconnect counted")
	}
}

func TestClientRetriesDisabled(t *testing.T) {
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := DialOptions("ws1", addr, Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()
	srv2, err := NewServer("registry", addr, func(m *Message) (*Message, error) { return nil, nil })
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// Without retries the broken connection is not re-dialled.
	if _, err := cli.Call(statusMsg("ws1")); err == nil {
		t.Fatal("call succeeded without retries on a broken connection")
	}
}

func TestClientDoesNotRetryRemoteErrors(t *testing.T) {
	var calls atomic.Int64
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		calls.Add(1)
		return nil, strings.NewReader("").UnreadByte() // any non-nil error
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialOptions("ws1", srv.Addr(), Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(statusMsg("ws1")); err == nil {
		t.Fatal("remote error not surfaced")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handler invoked %d times for a remote error; want 1", got)
	}
}

func TestServerDedupReplaysCachedResponse(t *testing.T) {
	var calls atomic.Int64
	mreg := metrics.NewRegistry()
	srv, err := NewServerOptions("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		calls.Add(1)
		return nil, nil
	}, Options{DedupWindow: 8, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := NewConn(raw)
	req := statusMsg("ws1")
	req.Seq = 7
	// The same (From, Seq) delivered twice — a redelivered retry. The
	// handler must run once; both responses must ack seq 7.
	for i := 0; i < 2; i++ {
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != TypeAck || resp.Seq != 7 {
			t.Fatalf("resp %d = %+v", i, resp)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handler ran %d times; want 1 (second delivery deduped)", got)
	}
	if mreg.Counter(CtrDeduped).Value() != 1 {
		t.Fatalf("deduped counter = %d, want 1", mreg.Counter(CtrDeduped).Value())
	}
}

func TestClientRetriesTimedOutCallOnFreshConnection(t *testing.T) {
	// A raw listener that swallows the first connection's request and
	// serves every later connection: the call times out waiting for a
	// response, reconnects, and succeeds on the retry.
	var calls atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer func() {
		ln.Close()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(swallow bool) {
				defer wg.Done()
				defer conn.Close()
				c := NewConn(conn)
				for {
					req, err := c.Recv()
					if err != nil {
						return
					}
					if swallow {
						continue
					}
					calls.Add(1)
					if err := c.Send(Ack("registry", req, nil)); err != nil {
						return
					}
				}
			}(first)
		}
	}()
	mreg := metrics.NewRegistry()
	cli, err := DialOptions("ws1", ln.Addr().String(), Options{
		CallTimeout: 100 * time.Millisecond,
		Retries:     2,
		Metrics:     mreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(statusMsg("ws1")); err != nil {
		t.Fatalf("Call with one swallowed request: %v", err)
	}
	if mreg.Counter(CtrRetries).Value() == 0 {
		t.Fatal("no retry counted after a swallowed request")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("request answered %d times; want 1", got)
	}
}

// TestServerClosesConnectionOnNonCanonicalFrame: a frame the scanner
// declines — here one encoding/xml would read — closes the connection it
// arrived on, and the server keeps serving its other connections.
func TestServerClosesConnectionOnNonCanonicalFrame(t *testing.T) {
	var calls atomic.Int64
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		calls.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	good, bad := NewConn(dial()), dial()
	roundTrip := func() {
		t.Helper()
		if err := good.Send(statusMsg("ws1")); err != nil {
			t.Fatal(err)
		}
		if resp, err := good.Recv(); err != nil || resp.Type != TypeAck {
			t.Fatalf("response on the good connection = %+v, %v", resp, err)
		}
	}
	roundTrip()

	frame := binary.BigEndian.AppendUint32(nil, uint32(len(nonCanonical[0])))
	if _, err := bad.Write(append(frame, nonCanonical[0]...)); err != nil {
		t.Fatal(err)
	}
	if err := bad.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := bad.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a non-canonical frame the server sent %d bytes, %v; want the connection closed", n, err)
	}
	roundTrip()
	if got := calls.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2 (the good connection's requests only)", got)
	}
}
