package proto

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"autoresched/internal/metrics"
)

func statusMsg(from string) *Message {
	return &Message{
		Type: TypeStatus,
		From: from,
		Status: &Status{
			State: "busy", Grade: 1, Load1: 0.97, NumProcs: 42,
			NetInMBps: 7.2, MemAvailPct: 55.5,
		},
	}
}

// staged returns payload with room for the frame header in front of it, the
// form writeFrame takes.
func staged(payload []byte) []byte {
	return append(make([]byte, frameHeaderLen), payload...)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: TypeRegister, From: "ws1", Static: &StaticInfo{
			Addr: "ws1:7000", OS: "simos", CPUSpeed: 1000, MemTotal: 128 << 20,
			Software: []string{"hpcm", "lam-mpi"},
		}},
		statusMsg("ws2"),
		{Type: TypeUnregister, From: "ws3"},
		{Type: TypeProcessRegister, From: "ws1", Process: &ProcessInfo{
			PID: 101, Name: "test_tree", Start: 12345, SchemaXML: "<applicationSchema><name>test_tree</name></applicationSchema>",
		}},
		{Type: TypeProcessExit, From: "ws1", Process: &ProcessInfo{PID: 101}},
		{Type: TypeCandidateRequest, From: "ws1"},
		{Type: TypeCandidateResponse, From: "registry", Candidate: &Candidate{OK: true, Host: "ws4", Addr: "ws4:7000"}},
		{Type: TypeMigrate, From: "registry", Migrate: &MigrateOrder{PID: 101, DestHost: "ws4", DestAddr: "ws4:7000", Policy: "policy3"}},
		{Type: TypeAck, From: "registry", Error: "boom"},
	}
	for _, m := range msgs {
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode(%s): %v", m.Type, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%s): %v", m.Type, err)
		}
		if got.Type != m.Type || got.From != m.From {
			t.Fatalf("round trip changed envelope: %+v vs %+v", m, got)
		}
		switch m.Type {
		case TypeStatus:
			if *got.Status != *m.Status {
				t.Fatalf("status changed: %+v vs %+v", m.Status, got.Status)
			}
		case TypeMigrate:
			if *got.Migrate != *m.Migrate {
				t.Fatalf("migrate changed: %+v vs %+v", m.Migrate, got.Migrate)
			}
		case TypeProcessRegister:
			if *got.Process != *m.Process {
				t.Fatalf("process changed: %+v vs %+v", m.Process, got.Process)
			}
		}
	}
}

func TestValidateRejectsMismatchedPayloads(t *testing.T) {
	bad := []*Message{
		{Type: TypeRegister, From: "x"},                 // no static
		{Type: TypeStatus, From: "x"},                   // no status
		{Type: TypeProcessRegister, From: "x"},          // no process
		{Type: TypeProcessExit, From: "x"},              // no process
		{Type: TypeCandidateResponse, From: "x"},        // no candidate
		{Type: TypeMigrate, From: "x"},                  // no order
		{Type: "weird", From: "x"},                      // unknown type
		{Type: TypeStatus, Status: &Status{}, From: ""}, // no sender
		{Type: TypeAck},                                 // no sender
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", m)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not xml at all")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
	if _, err := Decode([]byte("<hpcmMsg type='status' from='x'></hpcmMsg>")); err == nil {
		t.Fatal("Decode accepted status without payload")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	payloads := [][]byte{[]byte(""), []byte("a"), bytes.Repeat([]byte("xy"), 5000)}
	for _, p := range payloads {
		if err := c.writeFrame(staged(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := c.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame changed: %d vs %d bytes", len(got), len(p))
		}
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.writeFrame(staged(make([]byte, maxFrame+1))); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Header advertising an oversized frame is rejected on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := c.readFrame(); err == nil {
		t.Fatal("oversized header accepted")
	}
	// Truncated frame.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 'x'})
	if _, err := c.readFrame(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// Property: any ASCII payload round-trips through a frame.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		c := NewConn(&buf)
		if err := c.writeFrame(staged(payload)); err != nil {
			return len(payload) > maxFrame
		}
		got, err := c.readFrame()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerClientRequestResponse(t *testing.T) {
	var mu sync.Mutex
	var seen []MsgType
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		mu.Lock()
		seen = append(seen, m.Type)
		mu.Unlock()
		if m.Type == TypeCandidateRequest {
			return &Message{Type: TypeCandidateResponse, From: "registry",
				Candidate: &Candidate{OK: true, Host: "ws4", Addr: "ws4:7000"}}, nil
		}
		return nil, nil
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

	// Plain status gets an ack.
	resp, err := cli.Call(statusMsg("ws1"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != TypeAck || resp.Error != "" {
		t.Fatalf("resp = %+v", resp)
	}

	// Candidate request gets a typed response with matching seq.
	req := &Message{Type: TypeCandidateRequest}
	resp, err = cli.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != TypeCandidateResponse || !resp.Candidate.OK || resp.Candidate.Host != "ws4" {
		t.Fatalf("candidate resp = %+v", resp)
	}
	if resp.Seq != req.Seq {
		t.Fatalf("seq mismatch: %d vs %d", resp.Seq, req.Seq)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != TypeStatus || seen[1] != TypeCandidateRequest {
		t.Fatalf("server saw %v", seen)
	}
}

func TestServerHandlerError(t *testing.T) {
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		return nil, errors.New("rejected")
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
	resp, err := cli.Call(statusMsg("ws1"))
	if err == nil || resp == nil || !strings.Contains(resp.Error, "rejected") {
		t.Fatalf("resp = %+v, err = %v; want remote error", resp, err)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		return nil, nil
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
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := statusMsg(fmt.Sprintf("ws%d", i))
			if _, err := cli.Call(m); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	mreg := metrics.NewRegistry()
	cli, err := DialOptions("ws1", addr, Options{Metrics: mreg})
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
	if mreg.Counter(CtrRetries).Value() != 1 || mreg.Counter(CtrReconnects).Value() != 1 {
		t.Fatalf("retries %d, reconnects %d; want 1 each", mreg.Counter(CtrRetries).Value(), mreg.Counter(CtrReconnects).Value())
	}
}

func TestClientClosedCallFails(t *testing.T) {
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial("ws1", addr)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	srv.Close() // reconnect target also gone
	if _, err := cli.Call(statusMsg("ws1")); err == nil {
		t.Fatal("Call on closed client with dead server succeeded")
	}
}

func TestAckHelper(t *testing.T) {
	req := &Message{Type: TypeStatus, From: "ws1", Seq: 7, Status: &Status{}}
	ack := Ack("registry", req, nil)
	if ack.Type != TypeAck || ack.To != "ws1" || ack.Seq != 7 || ack.Error != "" {
		t.Fatalf("ack = %+v", ack)
	}
	ack = Ack("registry", req, errors.New("nope"))
	if ack.Error != "nope" {
		t.Fatalf("ack error = %q", ack.Error)
	}
}

// TestConnInternTableIsBounded: a connection that reads more distinct
// senders than its intern table holds still decodes every message exactly,
// and the table stops growing at its bound; an escaped name is copied,
// never interned.
func TestConnInternTableIsBounded(t *testing.T) {
	var stream bytes.Buffer
	c := NewConn(&stream)
	for i := 0; i < maxNames+100; i++ {
		want := &Message{Type: TypeAck, From: fmt.Sprintf("ws%d", i), To: fmt.Sprintf("a&b%d", i%3), Seq: uint64(i + 1)}
		if err := c.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		want.XMLName = got.XMLName
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d decoded as %+v, want %+v", i, got, want)
		}
	}
	if len(c.names) != maxNames {
		t.Errorf("intern table holds %d names after %d senders, want its bound %d", len(c.names), maxNames+100, maxNames)
	}
	for name := range c.names {
		if strings.Contains(name, "&") {
			t.Errorf("escaped name %q was interned", name)
		}
	}
}

// TestServerHandlerKeepsItsStrings: the server decodes every request of a
// connection into the same storage, yet a string a handler saved from an
// earlier request is unchanged by the later ones — longer, escaped or
// repeated names, and a state outside the interned three.
func TestServerHandlerKeepsItsStrings(t *testing.T) {
	var mu sync.Mutex
	var saved []string
	srv, err := NewServer("registry", "127.0.0.1:0", func(m *Message) (*Message, error) {
		mu.Lock()
		saved = append(saved, m.From, m.Status.State)
		mu.Unlock()
		return nil, nil
	})
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
	var want []string
	for i, from := range []string{"ws1", strings.Repeat("Z", 150), "a&b<c>", "ws1", "ws2"} {
		m := statusMsg(from)
		m.Seq = uint64(i + 1)
		m.Status.State = fmt.Sprintf("draining%d", i)
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		want = append(want, from, m.Status.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(saved, want) {
		t.Fatalf("handler's saved strings are now %q, want %q", saved, want)
	}
}
