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
	cli, err := Dial("ws1", srv.Addr())
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

func TestClientRetriesDroppedCallOnFreshConnection(t *testing.T) {
	// A raw listener that reads the first connection's request and hangs up
	// without answering, and serves every later connection: the call fails
	// on the wire, re-dials once, and succeeds on the fresh connection.
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
			go func(drop bool) {
				defer wg.Done()
				defer conn.Close()
				c := NewConn(conn)
				for {
					req, err := c.Recv()
					if err != nil || drop {
						return
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
	cli, err := DialOptions("ws1", ln.Addr().String(), Options{Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(statusMsg("ws1")); err != nil {
		t.Fatalf("Call with one dropped request: %v", err)
	}
	if mreg.Counter(CtrRetries).Value() != 1 || mreg.Counter(CtrReconnects).Value() != 1 {
		t.Fatalf("retries %d, reconnects %d; want 1 each", mreg.Counter(CtrRetries).Value(), mreg.Counter(CtrReconnects).Value())
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
