package sysinfo

import (
	"math"
	"testing"
	"time"

	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

func simRig(t *testing.T) (*sim.Host, *sim.Network, *vclock.Auto) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	t.Cleanup(clock.Close)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000, MemTotal: 128 << 20, MemBase: 28 << 20})
	nw := sim.NewNetwork(clock, sim.Options{DefaultBandwidth: 1e6})
	if err := nw.AddHost("ws1"); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddHost("ws2"); err != nil {
		t.Fatal(err)
	}
	return host, nw, clock
}

func TestSensorFirstGatherIsBaseline(t *testing.T) {
	host, nw, _ := simRig(t)
	sensor := NewSensor(NewSimSource(host, nw))
	snap, err := sensor.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Host != "ws1" {
		t.Fatalf("host = %q", snap.Host)
	}
	if snap.CPUIdlePct != 100 {
		t.Fatalf("first idle = %v, want 100", snap.CPUIdlePct)
	}
	if snap.MemTotal != 128<<20 || snap.MemAvail != 100<<20 {
		t.Fatalf("mem = %d avail %d", snap.MemTotal, snap.MemAvail)
	}
	if want := 100 * float64(100<<20) / float64(128<<20); math.Abs(snap.MemAvailPct-want) > 0.01 {
		t.Fatalf("MemAvailPct = %v, want %v", snap.MemAvailPct, want)
	}
}

func TestSensorWindowedCPUIdle(t *testing.T) {
	host, nw, clock := simRig(t)
	sensor := NewSensor(NewSimSource(host, nw))
	if _, err := sensor.Gather(); err != nil {
		t.Fatal(err)
	}

	// Busy for 30s of a 60s window: idle should be ~50%.
	p := host.Spawn("burn", 0)
	done := new(vclock.Event)
	vclock.Go(clock, func() { _ = p.Compute(30 * 1000); done.Fire() })
	vclock.Await(clock, done)
	clock.Sleep(30 * time.Second)

	snap, err := sensor.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.CPUIdlePct-50) > 1 {
		t.Fatalf("idle = %v, want ~50", snap.CPUIdlePct)
	}
	if math.Abs(snap.CPUUtilPct-50) > 1 {
		t.Fatalf("util = %v, want ~50", snap.CPUUtilPct)
	}
}

func TestSensorWindowedNetRates(t *testing.T) {
	host, nw, clock := simRig(t)
	sensor := NewSensor(NewSimSource(host, nw))
	if _, err := sensor.Gather(); err != nil {
		t.Fatal(err)
	}

	// Send 10 MB at 1 MB/s: 10s of transfer inside a 20s window = 0.5 MB/s.
	var terr error
	done := new(vclock.Event)
	vclock.Go(clock, func() { terr = nw.Transfer("ws1", "ws2", 10e6); done.Fire() })
	clock.Sleep(20 * time.Second)
	vclock.Await(clock, done)
	if terr != nil {
		t.Fatal(terr)
	}
	snap, err := sensor.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if want := 10e6 / 20.0; math.Abs(snap.NetSentBps-want) > 1000 {
		t.Fatalf("sent rate = %v, want ~%v", snap.NetSentBps, want)
	}
	if snap.NetRecvBps > 1000 {
		t.Fatalf("recv rate = %v, want ~0", snap.NetRecvBps)
	}
}

func TestSensorTracksProcsAndLoad(t *testing.T) {
	host, nw, clock := simRig(t)
	sensor := NewSensor(NewSimSource(host, nw))
	p := host.Spawn("app", 4<<20)
	vclock.Go(clock, func() { _ = p.Compute(1e9) })
	clock.Sleep(2 * time.Minute)
	snap, err := sensor.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumProcs != 1 || snap.RunQueue != 1 {
		t.Fatalf("procs=%d runqueue=%d, want 1/1", snap.NumProcs, snap.RunQueue)
	}
	if snap.Load1 < 0.8 {
		t.Fatalf("load1 = %v, want ~1 after 2 minutes", snap.Load1)
	}
	if len(snap.Procs) != 1 || snap.Procs[0].Name != "app" {
		t.Fatalf("proc table = %+v", snap.Procs)
	}
	p.Exit()
}

func TestSimSourceSockets(t *testing.T) {
	host, nw, clock := simRig(t)
	src := NewSimSource(host, nw)
	if n, err := src.Sockets(); err != nil || n != 0 {
		t.Fatalf("idle sockets = %d, %v", n, err)
	}
	// An in-flight transfer (1 s of it) is one established socket on each
	// endpoint.
	done := new(vclock.Event)
	vclock.Go(clock, func() { _ = nw.Transfer("ws1", "ws2", 1e6); done.Fire() })
	clock.Sleep(time.Millisecond)
	if n, err := src.Sockets(); err != nil || n != 1 {
		t.Fatalf("sockets = %d, %v; want 1", n, err)
	}
	if err := nw.SetDown("ws2", true); err != nil { // end the transfer
		t.Fatal(err)
	}
	vclock.Await(clock, done)
}

func TestSimSourceWithoutNetwork(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	host := sim.NewHost(clock, "lone", sim.Config{})
	sensor := NewSensor(NewSimSource(host, nil))
	snap, err := sensor.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sockets != 0 || snap.NetSentBps != 0 {
		t.Fatalf("network fields nonzero without a network: %+v", snap)
	}
}

func TestSimSourceDisks(t *testing.T) {
	host, nw, _ := simRig(t)
	// A simulated host has no mounts: a disk rule on it reports no mount
	// point, as on a host whose /proc tree gives no disk table.
	disks, err := NewSimSource(host, nw).Disks()
	if err != nil || len(disks) != 0 {
		t.Fatalf("disks = %+v, %v; want none", disks, err)
	}
}

func TestStaticCapturesHostFacts(t *testing.T) {
	host, nw, _ := simRig(t)
	st := NewSimSource(host, nw).Static()
	if st.HostName != "ws1" || st.CPUSpeed != 1000 || st.MemTotal != 128<<20 {
		t.Fatalf("static = %+v", st)
	}
}
