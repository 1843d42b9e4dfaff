package workload

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/livemig"
	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

func smallJacobi() JacobiConfig {
	return JacobiConfig{N: 24, Iters: 40, PollEvery: 4, WorkPerCell: 1}
}

func TestJacobiConvergesAndMatchesReference(t *testing.T) {
	_, mw := testRig(t)
	cfg := smallJacobi()
	var mu sync.Mutex
	residuals := map[int]float64{}
	cfg.OnResidual = func(iter int, res float64) {
		mu.Lock()
		residuals[iter] = res
		mu.Unlock()
	}
	p, err := mw.Start("jacobi", "ws1", Jacobi(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	wantRes, _ := JacobiReference(cfg)
	mu.Lock()
	defer mu.Unlock()
	got, ok := residuals[cfg.Iters]
	if !ok {
		t.Fatalf("no final residual: %v", residuals)
	}
	if math.Abs(got-wantRes) > 1e-12 {
		t.Fatalf("final residual = %v, want %v", got, wantRes)
	}
	// Relaxation must actually converge (residual decreasing).
	if first, last := residuals[cfg.PollEvery], residuals[cfg.Iters]; last >= first {
		t.Fatalf("residual not decreasing: first=%v last=%v", first, last)
	}
}

func TestJacobiSurvivesMigration(t *testing.T) {
	_, mw := testRig(t)
	cfg := smallJacobi()
	var mu sync.Mutex
	var finalRes float64
	cfg.OnResidual = func(iter int, res float64) {
		if iter == cfg.Iters {
			mu.Lock()
			finalRes = res
			mu.Unlock()
		}
	}
	p, err := mw.Start("jacobi", "ws1", Jacobi(cfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(hpcm.Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	wantRes, _ := JacobiReference(cfg)
	mu.Lock()
	defer mu.Unlock()
	if math.Abs(finalRes-wantRes) > 1e-12 {
		t.Fatalf("migrated residual = %v, want %v (grid corrupted in flight?)", finalRes, wantRes)
	}
}

func TestJacobiRejectsBadConfig(t *testing.T) {
	_, mw := testRig(t)
	p, err := mw.Start("bad", "ws1", Jacobi(JacobiConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestJacobiSchema(t *testing.T) {
	cfg := smallJacobi()
	s := cfg.Schema(1000)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Name != "jacobi" || !s.Is("data") {
		t.Fatalf("schema = %+v", s)
	}
	if want := 24.0 * 24 * 1 * 40; cfg.TotalWork() != want {
		t.Fatalf("TotalWork = %v, want %v", cfg.TotalWork(), want)
	}
}

func TestJacobiPagedMatchesReferenceBitExact(t *testing.T) {
	_, mw := testRig(t)
	cfg := smallJacobi()
	cfg.Paged = true
	var mu sync.Mutex
	var finalRes float64
	cfg.OnResidual = func(iter int, res float64) {
		if iter == cfg.Iters {
			mu.Lock()
			finalRes = res
			mu.Unlock()
		}
	}
	p, err := mw.Start("jacobi", "ws1", Jacobi(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	wantRes, _ := JacobiReference(cfg)
	mu.Lock()
	defer mu.Unlock()
	if finalRes != wantRes {
		t.Fatalf("paged residual = %v, want exactly %v", finalRes, wantRes)
	}
}

// TestJacobiPagedDirtyRowsMatchStencil pins the dirty-tracking contract the
// precopy driver relies on: with one page per grid row, each sweep's dirty
// set is exactly the rows whose bit patterns the stencil changed — no
// spurious dirtying from rewriting equal values, no missed rows.
func TestJacobiPagedDirtyRowsMatchStencil(t *testing.T) {
	cfg := smallJacobi()
	side := cfg.N + 2
	pg, err := livemig.NewPages(side*side*8, side*8)
	if err != nil {
		t.Fatal(err)
	}
	hot := make([]float64, side)
	for j := range hot {
		hot[j] = 100
	}
	pg.WriteFloat64s(0, hot)

	grid := newJacobiGrid(cfg.N, 100)
	next := make([]float64, len(grid))
	prev := make([]float64, side)
	cur := make([]float64, side)
	nxt := make([]float64, side)
	out := make([]float64, side)
	for it := 1; it <= cfg.Iters; it++ {
		mark := pg.Gen()
		jacobiPagedSweep(pg, cfg.N, prev, cur, nxt, out)

		// The flat reference sweep, diffed row by row.
		jacobiSweep(grid, next, cfg.N)
		var want []int
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				if math.Float64bits(next[i*side+j]) != math.Float64bits(grid[i*side+j]) {
					want = append(want, i)
					break
				}
			}
		}
		grid, next = next, grid

		got := pg.DirtySince(mark)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: dirty rows = %v, stencil touched %v", it, got, want)
		}
		if it == 1 && !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("iter 1: dirty rows = %v, heat should only have reached row 1", got)
		}
	}
}

func TestJacobiPagedSurvivesLiveMigration(t *testing.T) {
	// The live attempt resolves at a poll-point after the driver goroutine
	// reaches its decision, so the application must have work left when that
	// happens: run ten times longer than smallJacobi. A finished process
	// cancels a pending attempt by design.
	clock := vclock.NewAuto(vclock.Epoch)
	cl := core.NewCluster(clock, 12.5e6)
	if _, err := cl.AddHosts("ws", 3, sim.Config{Speed: 1e6}); err != nil {
		t.Fatal(err)
	}
	u := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    mpi.SimTransport{Net: cl.Net()},
		SpawnLatency: 300 * time.Millisecond,
	})
	var obsMu sync.Mutex
	phases := map[string]bool{}
	mw, err := hpcm.New(hpcm.Options{
		Universe: u, Hosts: cl, Live: &livemig.Config{},
		Events: metrics.On(func(ev hpcm.MigrationEvent) {
			obsMu.Lock()
			phases[ev.Phase] = true
			obsMu.Unlock()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallJacobi()
	cfg.Iters = 400
	var mu sync.Mutex
	var finalRes float64
	cfg.Paged = true
	cfg.OnResidual = func(iter int, res float64) {
		if iter == cfg.Iters {
			mu.Lock()
			finalRes = res
			mu.Unlock()
		}
	}
	p, err := mw.Start("jacobi", "ws1", Jacobi(cfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(hpcm.Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	wantRes, _ := JacobiReference(cfg)
	mu.Lock()
	gotRes := finalRes
	mu.Unlock()
	if gotRes != wantRes {
		t.Fatalf("live-migrated residual = %v, want exactly %v (paged grid corrupted in flight?)", gotRes, wantRes)
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	if !phases[hpcm.PhasePrecopy] {
		t.Fatalf("live path never ran a precopy round; phases seen: %v", phases)
	}
}

func TestJacobiReferenceDeterministic(t *testing.T) {
	a1, c1 := JacobiReference(smallJacobi())
	a2, c2 := JacobiReference(smallJacobi())
	if a1 != a2 || c1 != c2 {
		t.Fatal("reference not deterministic")
	}
	if c1 <= 0 {
		t.Fatalf("checksum = %v (heat never propagated)", c1)
	}
}

// BenchmarkJacobiSweep prices one relaxation sweep of the N=1024 grid that
// the migration benchmarks move: flat is the bare stencil, paged the same
// stencil through the livemig write barrier, one page per row.
func BenchmarkJacobiSweep(b *testing.B) {
	const n = 1024
	side := n + 2
	b.Run("flat", func(b *testing.B) {
		grid := newJacobiGrid(n, 100)
		next := make([]float64, len(grid))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jacobiSweep(grid, next, n)
			grid, next = next, grid
		}
	})
	b.Run("paged", func(b *testing.B) {
		pg, err := livemig.NewPages(side*side*8, side*8)
		if err != nil {
			b.Fatal(err)
		}
		pg.WriteFloat64s(0, newJacobiGrid(n, 100)[:side])
		prev := make([]float64, side)
		cur := make([]float64, side)
		nxt := make([]float64, side)
		out := make([]float64, side)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jacobiPagedSweep(pg, n, prev, cur, nxt, out)
		}
	})
}
