package proto

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
)

// discard is a stream that accepts every write and has nothing to read.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Read([]byte) (int, error)    { return 0, io.EOF }

// TestZeroAllocHotPaths pins the codec's floor at run time: sending a
// heartbeat or its ack allocates nothing, also when the caller builds the
// message on its stack, and decoding one allocates only what it returns —
// the Message with room for its Status, and the From/To strings (the type
// and the three rule states are interned).
func TestZeroAllocHotPaths(t *testing.T) {
	status := wireMessages()[1]
	ack := Ack("registry", status, nil)
	c := NewConn(discard{})
	for _, row := range []struct {
		m             *Message
		decodeCeiling float64
	}{{status, 2}, {ack, 3}} {
		wire, err := row.m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		send := func() {
			if err := c.Send(row.m); err != nil {
				t.Fatal(err)
			}
		}
		send() // grow the connection's write buffer
		if avg := testing.AllocsPerRun(200, send); avg != 0 {
			t.Errorf("Send(%s) allocates %.1f objects per op, want 0", row.m.Type, avg)
		}
		decode := func() {
			if _, err := Decode(wire); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, decode); avg > row.decodeCeiling {
			t.Errorf("Decode(%s) allocates %.1f objects per op, want at most %.0f", row.m.Type, avg, row.decodeCeiling)
		}
	}
	// Validate formats the type into its errors; were that to leak what m
	// points to, this status would move to the heap.
	sendBuilt := func() {
		st := *status.Status
		if err := c.Send(&Message{Type: TypeStatus, From: "ws1", Status: &st}); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, sendBuilt); avg != 0 {
		t.Errorf("Send of a status built by the caller allocates %.1f objects per op, want 0", avg)
	}
}

// heartbeatRig starts a Server whose handler copies each status, as
// Registry.Handler does, and returns a client connection to it with the
// heartbeats of four hosts, and the last status the handler saw.
func heartbeatRig(tb testing.TB) (c *Conn, beats []*Message, last func() Status) {
	var mu sync.Mutex
	var seen Status
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		mu.Lock()
		seen = *m.Status
		mu.Unlock()
		return nil, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { raw.Close() })
	for i := 1; i <= 4; i++ {
		m := statusMsg(fmt.Sprintf("ws%d", i))
		m.Status.Load1 = float64(i)
		beats = append(beats, m)
	}
	return NewConn(raw), beats, func() Status {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

// TestServerHeartbeatAllocatesNothing: the server side of a heartbeat —
// receive, handler call, ack — allocates nothing once the connection has
// seen its senders: the request lands in the connection's storage, its
// From is interned, and the ack is the connection's own message. The
// client here receives into storage too, so the whole round trip is 0.
func TestServerHeartbeatAllocatesNothing(t *testing.T) {
	c, beats, last := heartbeatRig(t)
	var in inbound
	seq := uint64(0)
	roundTrip := func() {
		seq++
		m := beats[seq%uint64(len(beats))]
		m.Seq = seq
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		data, err := c.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := in.decode(data, c.names); err != nil {
			t.Fatal(err)
		}
		if in.m.Type != TypeAck || in.m.Seq != seq || in.m.To != m.From {
			t.Fatalf("heartbeat %d from %s answered by %+v", seq, m.From, in.m)
		}
	}
	for range beats {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Errorf("a heartbeat round trip allocates %.1f objects, want 0", avg)
	}
	if got, want := last(), *beats[seq%uint64(len(beats))].Status; got != want {
		t.Errorf("handler's last status %+v, want %+v", got, want)
	}
}

// BenchmarkHeartbeatRoundTrip is one heartbeat from a client Conn to a
// Server over loopback and its ack back through Recv: the proto layer of
// a monitor's refresh, framing and both codecs included.
func BenchmarkHeartbeatRoundTrip(b *testing.B) {
	c, beats, _ := heartbeatRig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := beats[i%len(beats)]
		m.Seq = uint64(i + 1)
		if err := c.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
