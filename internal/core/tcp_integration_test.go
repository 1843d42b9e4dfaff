package core

import (
	"testing"
	"time"

	"autoresched/internal/monitor"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// tcpReporter adapts a proto client into a monitor.Reporter, as
// cmd/reschedd does — duplicated here so the wire path is covered by the
// test suite.
type tcpReporter struct{ cli *proto.Client }

func (r *tcpReporter) RegisterHost(host string, static proto.StaticInfo) error {
	_, err := r.cli.Call(&proto.Message{Type: proto.TypeRegister, Static: &static})
	return err
}
func (r *tcpReporter) ReportStatus(host string, status proto.Status) error {
	_, err := r.cli.Call(&proto.Message{Type: proto.TypeStatus, Status: &status})
	return err
}
func (r *tcpReporter) UnregisterHost(host string) error {
	_, err := r.cli.Call(&proto.Message{Type: proto.TypeUnregister})
	return err
}

// TestMonitorToRegistryOverTCP runs the paper's deployment shape for the
// control plane: the registry/scheduler serves the XML protocol on a real
// TCP socket; a monitor on another "machine" registers, refreshes
// soft-state, and requests a migration candidate — all over the wire.
func TestMonitorToRegistryOverTCP(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	cl := NewCluster(clock, 0)
	t.Cleanup(cl.Close)
	if _, err := cl.AddHosts("ws", 2, sim.Config{Speed: 1e6}); err != nil {
		t.Fatal(err)
	}

	reg := registry.NewRegistry(registry.WithClock(clock))
	srv, err := proto.NewServer("registry", "127.0.0.1:0", reg.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Two monitors, one per host, each over its own TCP connection.
	var monitors []*monitor.Monitor
	for _, host := range cl.Hosts() {
		cli, err := proto.Dial(host, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		src, _ := cl.Source(host)
		m, err := monitor.NewMonitor(host, src,
			monitor.WithEngine(DefaultEngine()),
			monitor.WithReporter(&tcpReporter{cli: cli}),
			monitor.WithClock(clock),
			monitor.WithDefaultFrequency(10*time.Second),
			monitor.WithCommandAddr("cmd://"+host),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		monitors = append(monitors, m)
	}

	// The registry learns both hosts and sees them free.
	deadline := time.Now().Add(10 * time.Second)
	for {
		hosts := reg.Hosts()
		ready := 0
		for _, h := range hosts {
			if h.State == rules.Free && h.Status.State == "free" {
				ready++
			}
		}
		if ready == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never saw both hosts free: %+v", hosts)
		}
		clock.Sleep(time.Second)
	}

	// A process registration and a candidate request over the wire (the
	// pull-style consult of the overloaded host).
	cli, err := proto.Dial("ws1", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(&proto.Message{
		Type:    proto.TypeProcessRegister,
		Process: &proto.ProcessInfo{PID: 42, Name: "test_tree", Start: clock.Now().UnixNano()},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Call(&proto.Message{Type: proto.TypeCandidateRequest})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != proto.TypeCandidateResponse || !resp.Candidate.OK {
		t.Fatalf("candidate = %+v", resp)
	}
	if resp.Candidate.Host != "ws2" {
		t.Fatalf("candidate host = %s, want ws2 (ws1 excluded as the asker)", resp.Candidate.Host)
	}

	// Stopping the monitors unregisters the hosts over the wire too.
	for _, m := range monitors {
		m.Stop()
	}
	deadline = time.Now().Add(5 * time.Second)
	for len(reg.Hosts()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hosts never unregistered: %+v", reg.Hosts())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
