package workload

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/livemig"
	"autoresched/internal/metrics"
)

func smallJacobi() JacobiConfig {
	return JacobiConfig{N: 24, Iters: 40, PollEvery: 4, WorkPerCell: 1}
}

// TestJacobiConvergesAndMatchesReference runs the body on either grid at two
// poll spacings and holds its final residual and grid to JacobiReference bit
// for bit. The grid is read back through the runtime: every poll-point
// checkpoints, and a process restored from the last image sums the grid it
// awaits.
func TestJacobiConvergesAndMatchesReference(t *testing.T) {
	for _, kind := range []string{"flat", "paged"} {
		for _, every := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/PollEvery=%d", kind, every), func(t *testing.T) {
				store := hpcm.NewMemStore()
				_, mw := rigWith(t, hpcm.Options{Checkpoints: store, CheckpointEvery: time.Nanosecond})
				cfg := smallJacobi()
				cfg.Paged, cfg.PollEvery = kind == "paged", every
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
				wantRes, wantSum := JacobiReference(cfg)
				if got := checkpointedChecksum(t, mw, store, cfg); math.Float64bits(got) != math.Float64bits(wantSum) {
					t.Fatalf("final checksum = %v, want exactly %v", got, wantSum)
				}
				mu.Lock()
				defer mu.Unlock()
				got, ok := residuals[cfg.Iters]
				if !ok {
					t.Fatalf("no final residual: %v", residuals)
				}
				if math.Float64bits(got) != math.Float64bits(wantRes) {
					t.Fatalf("final residual = %v, want exactly %v", got, wantRes)
				}
				// Relaxation must actually converge (residual decreasing).
				if first, last := residuals[cfg.PollEvery], residuals[cfg.Iters]; last >= first {
					t.Fatalf("residual not decreasing: first=%v last=%v", first, last)
				}
			})
		}
	}
}

// checkpointedChecksum restores the jacobi process's last checkpoint and sums
// its grid in grid order, as JacobiReference does.
func checkpointedChecksum(t *testing.T, mw *hpcm.Middleware, store hpcm.CheckpointStore, cfg JacobiConfig) float64 {
	t.Helper()
	var sum float64
	p, err := mw.Restore(store, "jacobi", "ws2", func(ctx *hpcm.Context) error {
		var st jacobiState
		if err := ctx.Register("state", &st); err != nil {
			return err
		}
		if st.Iter != cfg.Iters {
			return fmt.Errorf("last checkpoint at iteration %d, want %d", st.Iter, cfg.Iters)
		}
		g, err := registerGrid(ctx, cfg)
		if err != nil {
			return err
		}
		side := cfg.N + 2
		row := make([]float64, side)
		for i := 0; i < side; i++ {
			g.ReadFloat64s(i*side, row)
			for _, v := range row {
				sum += v
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	return sum
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
	if math.Float64bits(finalRes) != math.Float64bits(wantRes) {
		t.Fatalf("migrated residual = %v, want exactly %v (grid corrupted in flight?)", finalRes, wantRes)
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
	prev, cur, nxt, out := scratchRows(side)
	for it := 1; it <= cfg.Iters; it++ {
		mark := pg.Gen()
		jacobiSweep(pg, cfg.N, prev, cur, nxt, out)

		// The reference sweep, diffed row by row.
		referenceSweep(grid, next, cfg.N)
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
	var obsMu sync.Mutex
	phases := map[string]bool{}
	_, mw := rigWith(t, hpcm.Options{
		Live: &livemig.Config{},
		Events: metrics.On(func(ev hpcm.MigrationEvent) {
			obsMu.Lock()
			phases[ev.Phase] = true
			obsMu.Unlock()
		}),
	})
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

// testGrid is a fresh N-grid, Hot 100 along the top row, behind one of the
// sweep's two accessors.
type testGrid struct {
	name string
	g    rows
}

func testGrids(tb testing.TB, n int) []testGrid {
	tb.Helper()
	side := n + 2
	grid := newJacobiGrid(n, 100)
	pg, err := livemig.NewPages(side*side*8, side*8)
	if err != nil {
		tb.Fatal(err)
	}
	pg.WriteFloat64s(0, grid[:side])
	return []testGrid{{"flat", flatRows(grid)}, {"paged", pg}}
}

// scratchRows returns the four side-length rows jacobiSweep rotates.
func scratchRows(side int) (prev, cur, nxt, out []float64) {
	return make([]float64, side), make([]float64, side), make([]float64, side), make([]float64, side)
}

// TestJacobiSweepMatchesReference holds the in-place sweep, over either
// grid, to the independent two-grid referenceSweep: every cell's bits and
// the residual after each of 300 sweeps. N=1 gives the row kernel one
// interior cell.
func TestJacobiSweepMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 7, 130} {
		for _, tg := range testGrids(t, n) {
			t.Run(fmt.Sprintf("%s/N=%d", tg.name, n), func(t *testing.T) {
				side := n + 2
				grid := newJacobiGrid(n, 100)
				next := make([]float64, len(grid))
				prev, cur, nxt, out := scratchRows(side)
				got := make([]float64, len(grid))
				for it := 1; it <= 300; it++ {
					res := jacobiSweep(tg.g, n, prev, cur, nxt, out)
					want := referenceSweep(grid, next, n)
					grid, next = next, grid
					if math.Float64bits(res) != math.Float64bits(want) {
						t.Fatalf("sweep %d: residual %v, reference %v", it, res, want)
					}
					tg.g.ReadFloat64s(0, got)
					for k := range got {
						if math.Float64bits(got[k]) != math.Float64bits(grid[k]) {
							t.Fatalf("sweep %d: cell (%d,%d) = %v, reference %v", it, k/side, k%side, got[k], grid[k])
						}
					}
				}
			})
		}
	}
}

// TestJacobiSweepAllocatesNothing pins the sweep's zero-allocation contract
// over either grid: the accessor is built once, outside the sweep.
func TestJacobiSweepAllocatesNothing(t *testing.T) {
	const n = 64
	for _, tg := range testGrids(t, n) {
		prev, cur, nxt, out := scratchRows(n + 2)
		if a := testing.AllocsPerRun(20, func() { jacobiSweep(tg.g, n, prev, cur, nxt, out) }); a != 0 {
			t.Errorf("%s: %v allocations per sweep, want 0", tg.name, a)
		}
	}
}

// BenchmarkJacobiSweep prices one in-place relaxation sweep of the N=1024
// grid that the migration benchmarks move: flat is a plain slice, paged the
// livemig write barrier, one page per row. Both run the same sweep.
func BenchmarkJacobiSweep(b *testing.B) {
	const n = 1024
	for _, tg := range testGrids(b, n) {
		b.Run(tg.name, func(b *testing.B) {
			prev, cur, nxt, out := scratchRows(n + 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResidual = jacobiSweep(tg.g, n, prev, cur, nxt, out)
			}
		})
	}
}

// BenchmarkRelaxRow prices the row kernel alone on one N=1024 row.
func BenchmarkRelaxRow(b *testing.B) {
	const side = 1024 + 2
	prev, cur, nxt, out := scratchRows(side)
	for j := range side {
		prev[j], cur[j], nxt[j] = float64(j), float64(2*j), float64(3*j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResidual = relaxRow(prev, cur, nxt, out, 0)
	}
}

// sinkResidual keeps the benchmarked calls' results live.
var sinkResidual float64
