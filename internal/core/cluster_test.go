package core

import (
	"fmt"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/mpi"
	"autoresched/internal/sim"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

func TestAddHostAndLookup(t *testing.T) {
	c := NewCluster(vclock.NewManual(vclock.Epoch), 0)
	h, err := c.AddHost("ws1", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Speed() != SunBlade100.Speed {
		t.Fatalf("default speed = %v", h.Speed())
	}
	if _, err := c.AddHost("ws1", sim.Config{}); err == nil {
		t.Fatal("duplicate host accepted")
	}
	got, ok := c.Host("ws1")
	if !ok || got != h {
		t.Fatal("Host lookup failed")
	}
	if _, ok := c.Host("nope"); ok {
		t.Fatal("phantom host found")
	}
}

func TestAddHostsBatch(t *testing.T) {
	c := NewCluster(vclock.NewManual(vclock.Epoch), 0)
	names, err := c.AddHosts("ws", 5, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || names[0] != "ws1" || names[4] != "ws5" {
		t.Fatalf("names = %v", names)
	}
	if got := c.Hosts(); len(got) != 5 || got[0] != "ws1" {
		t.Fatalf("Hosts() = %v", got)
	}
}

func TestSourceSharedAndGathering(t *testing.T) {
	c := NewCluster(vclock.NewManual(vclock.Epoch), 0)
	if _, err := c.AddHost("ws1", sim.Config{}); err != nil {
		t.Fatal(err)
	}
	src, ok := c.Source("ws1")
	if !ok {
		t.Fatal("no source")
	}
	src2, _ := c.Source("ws1")
	if src != src2 {
		t.Fatal("sources not shared")
	}
	snap, err := sysinfo.NewSensor(src).Gather()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Host != "ws1" || snap.MemTotal != SunBlade100.MemTotal {
		t.Fatalf("snapshot = %+v", snap)
	}
	if _, ok := c.Source("ghost"); ok {
		t.Fatal("phantom source")
	}
}

func TestAttachBindsProcesses(t *testing.T) {
	c := NewCluster(vclock.NewAuto(vclock.Epoch), 0)
	t.Cleanup(c.Close)
	h, err := c.AddHost("ws1", sim.Config{Speed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := c.Attach("ws1", "app", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if hp.PID() == 0 || hp.Started().Before(vclock.Epoch) {
		t.Fatalf("proc identity: pid=%d started=%v", hp.PID(), hp.Started())
	}
	if h.NumProcs() != 1 {
		t.Fatalf("NumProcs = %d", h.NumProcs())
	}
	start := c.Clock().Now()
	if err := hp.Compute(1000); err != nil { // one virtual second
		t.Fatal(err)
	}
	if d := c.Clock().Since(start); d < 500*time.Millisecond {
		t.Fatalf("compute charged only %v", d)
	}
	hp.Exit()
	if h.NumProcs() != 0 {
		t.Fatalf("NumProcs after exit = %d", h.NumProcs())
	}
	if _, err := c.Attach("ghost", "app", 0); err == nil {
		t.Fatal("attach to unknown host succeeded")
	}
}

// TestMovedProcessAttachesWithItsMemory: the memory a process last reported
// travels in its state image, so a migrated and a restored incarnation both
// occupy their new host from the moment they attach — before the application
// gets round to calling SetMemory again, the window in which the registry
// would otherwise see that host's memory as free.
func TestMovedProcessAttachesWithItsMemory(t *testing.T) {
	const mem = 48 << 20
	c := NewCluster(vclock.NewAuto(vclock.Epoch), 0)
	t.Cleanup(c.Close)
	if _, err := c.AddHosts("ws", 3, sim.Config{MemTotal: 256 << 20}); err != nil {
		t.Fatal(err)
	}
	used := func(host string) int64 {
		h, _ := c.Host(host)
		_, u := h.Memory()
		return u
	}
	idle := used("ws2")
	store := hpcm.NewMemStore()
	mw, err := hpcm.New(hpcm.Options{
		Universe:    mpi.NewUniverse(mpi.Options{Clock: c.Clock(), Transport: mpi.SimTransport{Net: c.Net()}}),
		Hosts:       c,
		Checkpoints: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	// On a resumed incarnation main reports what its host charged it on
	// arrival, without calling SetMemory itself. The first incarnation
	// reaches its poll-point only once the migrate command is pending.
	signalled := make(chan struct{})
	main := func(ctx *hpcm.Context) error {
		bulk := make([]byte, 1<<20)
		if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
			return err
		}
		if ctx.Resumed() {
			if got := used(ctx.Host()) - idle; got != mem {
				return fmt.Errorf("%s charges the arriving process %d bytes, want %d", ctx.Host(), got, mem)
			}
			return ctx.Await("bulk")
		}
		ctx.SetMemory(mem)
		<-signalled
		if err := ctx.PollPoint("moved"); err != nil {
			return err
		}
		return fmt.Errorf("no migration at the poll-point")
	}
	p, err := mw.Start("app", "ws1", main)
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(hpcm.Command{DestHost: "ws2"}) // also writes the safety checkpoint
	close(signalled)
	if err := p.Wait(); err != nil {
		t.Fatalf("migrated incarnation: %v", err)
	}
	restored, err := mw.Restore(store, "app", "ws3", main)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Wait(); err != nil {
		t.Fatalf("restored incarnation: %v", err)
	}
}

func TestNetworkWired(t *testing.T) {
	c := NewCluster(vclock.NewAuto(vclock.Epoch), 1e6)
	t.Cleanup(c.Close)
	if _, err := c.AddHosts("ws", 2, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Net().Transfer("ws1", "ws2", 1000); err != nil {
		t.Fatal(err)
	}
	sent, _, err := c.Net().Counters("ws1")
	if err != nil || sent != 1000 {
		t.Fatalf("sent = %d, %v", sent, err)
	}
}
