package core

import (
	"sync"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/rules"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

func newSystem(t *testing.T, scale float64, hosts int, opts Options) (*System, *Cluster) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	cl := NewCluster(clock, 12.5e6)
	t.Cleanup(cl.Close)
	names, err := cl.AddHosts("ws", hosts, sim.Config{Speed: 1e6, MemTotal: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cluster = cl
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddNodes(names...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, cl
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without cluster accepted")
	}
}

func TestAddNodeErrors(t *testing.T) {
	s, _ := newSystem(t, 500, 1, Options{})
	if _, err := s.AddNode("ghost"); err == nil {
		t.Fatal("node on unknown host accepted")
	}
	if _, err := s.AddNode("ws1"); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, ok := s.Node("ws1"); !ok {
		t.Fatal("node lookup failed")
	}
}

func TestMonitorsRegisterHosts(t *testing.T) {
	s, _ := newSystem(t, 500, 3, Options{})
	deadline := time.Now().Add(5 * time.Second)
	for len(s.Registry().Hosts()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("hosts registered = %d", len(s.Registry().Hosts()))
		}
		s.Clock().Sleep(time.Second)
	}
	// After a few cycles every idle host reports free.
	s.Clock().Sleep(time.Minute)
	for _, h := range s.Registry().Hosts() {
		if h.State != rules.Free {
			t.Fatalf("host %s state = %v", h.Name, h.State)
		}
	}
}

func TestLaunchRequiresNode(t *testing.T) {
	s, _ := newSystem(t, 500, 1, Options{})
	_, err := s.Launch("x", "nope", nil, func(ctx *hpcm.Context) error { return nil })
	if err == nil {
		t.Fatal("launch on unknown node accepted")
	}
}

// TestAutonomicLoopEndToEnd runs the paper's core scenario: a
// migration-enabled test_tree starts on ws1; background load overloads ws1;
// the monitor reports it, the registry picks the process and a free host,
// the commander signals, and the process migrates and finishes elsewhere,
// with correct results.
func TestAutonomicLoopEndToEnd(t *testing.T) {
	s, cl := newSystem(t, 1000, 3, Options{
		Warmup:   3,
		Cooldown: 2 * time.Minute,
	})

	cfg := workload.TreeConfig{
		Levels: 10, Rounds: 60, Seed: 7,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	// (3+10 phases) * 1023 nodes * 600 * 60 rounds / 1e6 speed ≈ 480
	// virtual seconds of solo work — long enough for the load average to
	// build, the warm-up to elapse and the migration to pay off.
	sch := cfg.Schema(1e6)
	var mu sync.Mutex
	sums := map[int]int64{}
	cfg.OnSum = func(round int, sum int64) {
		mu.Lock()
		sums[round] = sum
		mu.Unlock()
	}
	app, err := s.Launch("test_tree", "ws1", sch, workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}

	// Overload ws1 with three always-busy workers.
	ws1, _ := cl.Host("ws1")
	loadgen := workload.NewLoadGen(ws1, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second})
	loadgen.Start()
	defer loadgen.Stop()

	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if app.Proc.Migrations() < 1 {
		t.Fatal("process never migrated despite overload")
	}
	if app.Host() == "ws1" {
		t.Fatalf("process finished on the overloaded host")
	}
	rec := app.Proc.Records()[0]
	if rec.From != "ws1" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.MigrationTime() <= 0 {
		t.Fatalf("migration time = %v", rec.MigrationTime())
	}

	want := workload.ExpectedSums(cfg)
	mu.Lock()
	defer mu.Unlock()
	if len(sums) != cfg.Rounds {
		t.Fatalf("rounds completed = %d/%d", len(sums), cfg.Rounds)
	}
	for round, sum := range want {
		if sums[round] != sum {
			t.Fatalf("round %d sum = %d, want %d", round, sums[round], sum)
		}
	}

	// The registry should know the process finished (no processes left).
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := 0
		for _, h := range s.Registry().Hosts() {
			left += len(s.Registry().Processes(h.Name))
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still tracks %d processes", left)
		}
		s.Clock().Sleep(time.Second)
	}
	ordered, _ := s.Registry().Stats()
	if ordered < 1 {
		t.Fatal("registry issued no orders")
	}
}

// TestPolicyDrivenSystemAvoidsCommunicatingHost: with Policy3 and a
// communication-busy early host, the system picks the quiet one.
func TestPolicyDrivenSystemAvoidsCommunicatingHost(t *testing.T) {
	// Modest clock scale: the communication generator's achieved rate must
	// stay well above policy 3's 3 MB/s threshold, and goroutine wake-up
	// latency eats virtual bandwidth proportionally to the scale.
	s, cl := newSystem(t, 250, 4, Options{
		Policy:   rules.Policy3(),
		Warmup:   2,
		Cooldown: 2 * time.Minute,
	})
	// ws2 exchanges traffic with ws4 (ws2 registered before ws3, so a
	// communication-blind first-fit would pick it).
	comm := workload.NewCommLoad(s.Clock(), cl.Net(), "ws2", "ws4",
		workload.CommOptions{Rate: 7e6, Chunk: 8 << 20, Bidirectional: true})
	comm.Start()
	defer comm.Stop()

	cfg := workload.TreeConfig{Levels: 10, Rounds: 50, Seed: 3, WorkPerNode: 600, BytesPerNode: 8}
	app, err := s.Launch("test_tree", "ws1", cfg.Schema(1e6), workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ws1, _ := cl.Host("ws1")
	loadgen := workload.NewLoadGen(ws1, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second})
	loadgen.Start()
	defer loadgen.Stop()

	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if app.Proc.Migrations() < 1 {
		t.Fatal("no migration")
	}
	if to := app.Proc.Records()[0].To; to != "ws3" {
		t.Fatalf("migrated to %s, want ws3 (policy3 skips the communicating ws2)", to)
	}
}

func TestSchemaFeedbackAfterCompletion(t *testing.T) {
	s, _ := newSystem(t, 2000, 1, Options{})
	cfg := workload.TreeConfig{Levels: 8, Rounds: 3, Seed: 1, WorkPerNode: 4, BytesPerNode: 8}
	sch := cfg.Schema(1e6)
	app, err := s.Launch("test_tree", "ws1", sch, workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if !app.Settled().Fired() {
		t.Fatal("app never settled")
	}
	if sch.Stats.Runs == 0 {
		t.Fatal("schema statistics never updated")
	}
	if sch.Work() <= 0 {
		t.Fatalf("observed work = %v", sch.Work())
	}
}

func TestGatherCostShowsUpOnHost(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	cl := NewCluster(clock, 0)
	t.Cleanup(cl.Close)
	if _, err := cl.AddHost("ws1", sim.Config{Speed: 1e6}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Cluster: cl, GatherCost: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNode("ws1"); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	host, _ := cl.Host("ws1")
	// The monitor's charger occupies the process table.
	if host.NumProcs() != 1 {
		t.Fatalf("NumProcs = %d, want the monitor's charger", host.NumProcs())
	}
	clock.Sleep(2 * time.Minute)
	busy, _ := host.CPUTimes()
	if busy <= 0 {
		t.Fatal("gather cost never charged")
	}
	s.Stop()
	if host.NumProcs() != 0 {
		t.Fatalf("charger not removed on stop: %d", host.NumProcs())
	}
}
