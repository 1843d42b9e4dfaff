package proto

import (
	"io"
	"testing"
)

// discard is a stream that accepts every write and has nothing to read.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Read([]byte) (int, error)    { return 0, io.EOF }

// TestZeroAllocHotPaths pins the codec's floor at run time: sending a
// heartbeat or its ack allocates nothing, and decoding one allocates only
// what it returns — the Message, the Status and the From/To strings (the
// type and the three rule states are interned).
func TestZeroAllocHotPaths(t *testing.T) {
	status := wireMessages()[1]
	ack := Ack("registry", status, nil)
	c := NewConn(discard{})
	for _, row := range []struct {
		m             *Message
		decodeCeiling float64
	}{{status, 4}, {ack, 3}} {
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
}
