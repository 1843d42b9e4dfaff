package workload

import (
	"fmt"
	"math"

	"autoresched/internal/hpcm"
	"autoresched/internal/rules"
)

// JacobiConfig parameterises a migration-enabled 2-D Jacobi relaxation — the
// classic iterative MPI kernel, here as a second realistic workload beside
// test_tree: long-running, checkpointable at iteration boundaries, with a
// large contiguous memory state (the grid) that migrates lazily.
type JacobiConfig struct {
	// N is the interior grid dimension (the full grid is (N+2)^2 with
	// fixed boundaries).
	N int
	// Iters is the number of relaxation sweeps.
	Iters int
	// PollEvery inserts a poll-point every so many iterations; zero
	// selects 1.
	PollEvery int
	// WorkPerCell is the CPU cost per cell per sweep, in host work units.
	WorkPerCell float64
	// Hot is the boundary temperature applied along the top edge.
	Hot float64
	// Paged chooses only where the grid lives: a livemig.Pages region, one
	// page per row behind its change-suppressing row barrier (eligible for
	// iterative-precopy live migration), instead of a plain []float64. The
	// sweep is the same either way, bit-exact with JacobiReference.
	Paged bool
	// OnResidual, if set, receives the residual at every poll boundary.
	OnResidual func(iter int, residual float64)
}

func (cfg JacobiConfig) withDefaults() JacobiConfig {
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 1
	}
	if cfg.Hot == 0 {
		cfg.Hot = 100
	}
	return cfg
}

// TotalWork estimates the run's CPU cost in work units.
func (cfg JacobiConfig) TotalWork() float64 {
	return float64(cfg.N) * float64(cfg.N) * cfg.WorkPerCell * float64(cfg.Iters)
}

// Schema builds the application schema for the run.
func (cfg JacobiConfig) Schema(refSpeed float64) *rules.Schema {
	gridBytes := int64(cfg.N+2) * int64(cfg.N+2) * 8
	return &rules.Schema{
		Name:            "jacobi",
		Characteristics: []rules.Characteristic{rules.ComputeIntensive, rules.DataIntensive},
		CommBytes:       gridBytes + 4096,
		LocalDataBytes:  gridBytes,
		Estimate: rules.Estimate{
			Seconds:  cfg.TotalWork() / refSpeed,
			CPUSpeed: refSpeed,
		},
	}
}

// jacobiState is the eager execution state; the grid itself is lazy.
type jacobiState struct {
	Iter     int
	Residual float64
}

// rows is the grid as the sweep sees it, whole rows at a word index:
// *livemig.Pages or flatRows, a grid in one plain slice.
type rows interface {
	ReadFloat64s(i int, dst []float64)
	WriteFloat64s(i int, vals []float64)
}

type flatRows []float64

func (g flatRows) ReadFloat64s(i int, dst []float64)   { copy(dst, g[i:i+len(dst)]) }
func (g flatRows) WriteFloat64s(i int, vals []float64) { copy(g[i:i+len(vals)], vals) }

// Jacobi returns the migration-enabled application body.
func Jacobi(cfg JacobiConfig) hpcm.Main {
	cfg = cfg.withDefaults()
	return func(ctx *hpcm.Context) error {
		if cfg.N <= 0 || cfg.Iters <= 0 {
			return fmt.Errorf("workload: bad jacobi config %+v", cfg)
		}
		var st jacobiState
		if err := ctx.Register("state", &st); err != nil {
			return err
		}
		g, err := registerGrid(ctx, cfg)
		if err != nil {
			return err
		}
		side := cfg.N + 2
		ctx.SetMemory(int64(side*side*8) + 1<<20)

		sweepWork := float64(cfg.N) * float64(cfg.N) * cfg.WorkPerCell
		prev := make([]float64, side)
		cur := make([]float64, side)
		nxt := make([]float64, side)
		out := make([]float64, side)
		for st.Iter < cfg.Iters {
			if err := ctx.Compute(sweepWork * float64(min(cfg.PollEvery, cfg.Iters-st.Iter))); err != nil {
				return err
			}
			for k := 0; k < cfg.PollEvery && st.Iter < cfg.Iters; k++ {
				st.Residual = jacobiSweep(g, cfg.N, prev, cur, nxt, out)
				st.Iter++
			}
			if cfg.OnResidual != nil {
				cfg.OnResidual(st.Iter, st.Residual)
			}
			if err := ctx.PollPoint(fmt.Sprintf("iter-%d", st.Iter)); err != nil {
				return err
			}
		}
		return nil
	}
}

// registerGrid registers the lazy grid and returns it restored or fresh. A
// paged grid has one page per row, so a sweep dirties exactly the rows it
// changed. The accessor is built once per incarnation: a flatRows boxed per
// sweep allocates.
func registerGrid(ctx *hpcm.Context, cfg JacobiConfig) (rows, error) {
	side := cfg.N + 2
	if !cfg.Paged {
		grid := new([]float64)
		if err := ctx.RegisterLazy("grid", grid); err != nil {
			return nil, err
		}
		if ctx.Resumed() {
			if err := ctx.Await("grid"); err != nil {
				return nil, err
			}
		} else {
			*grid = newJacobiGrid(cfg.N, cfg.Hot)
		}
		return flatRows(*grid), nil
	}
	pg, err := ctx.RegisterPages("grid", side*side*8, side*8)
	if err != nil {
		return nil, err
	}
	if ctx.Resumed() {
		return pg, ctx.Await("grid")
	}
	hot := make([]float64, side)
	for j := range hot {
		hot[j] = cfg.Hot
	}
	pg.WriteFloat64s(0, hot)
	return pg, nil
}

// jacobiSweep relaxes rows 1..n of g in place and returns the residual: a
// Jacobi grid, or an elastic block between its ghost rows. Rows are as wide
// as the scratch rows, which rotate to hold the old rows i-1, i and i+1
// while row i is overwritten, so every new value comes from the old grid,
// as in referenceSweep.
//
//hot:path
func jacobiSweep(g rows, n int, prev, cur, nxt, out []float64) float64 {
	side := len(prev)
	g.ReadFloat64s(0, prev)
	g.ReadFloat64s(side, cur)
	var residual float64
	for i := 1; i <= n; i++ {
		g.ReadFloat64s((i+1)*side, nxt)
		residual = relaxRow(prev, cur, nxt, out, residual)
		g.WriteFloat64s(i*side, out)
		prev, cur, nxt = cur, nxt, prev
	}
	return residual
}

// relaxRow relaxes row cur between prev and nxt into out (boundary cells
// copied) and returns the larger of residual and the row's largest change.
// It adds left+right+up+down, as referenceSweep does, so the two agree bit
// for bit; every operand is resliced to n cells so the loop has no bounds checks.
//
//hot:path
func relaxRow(prev, cur, nxt, out []float64, residual float64) float64 {
	n := len(cur) - 2
	out[0], out[n+1] = cur[0], cur[n+1]
	left, mid, right := cur[:n], cur[1:n+1], cur[2:n+2]
	up, down, dst := prev[1:n+1], nxt[1:n+1], out[1:n+1]
	for j := range mid {
		v := 0.25 * (left[j] + right[j] + up[j] + down[j])
		if d := math.Abs(v - mid[j]); d > residual {
			residual = d
		}
		dst[j] = v
	}
	return residual
}

// newJacobiGrid builds the initial grid: zero interior, Hot along the top
// boundary row.
func newJacobiGrid(n int, hot float64) []float64 {
	side := n + 2
	grid := make([]float64, side*side)
	for j := 0; j < side; j++ {
		grid[j] = hot
	}
	return grid
}

// JacobiReference runs the same relaxation without the runtime, for
// verifying migrated/recovered runs bit for bit.
func JacobiReference(cfg JacobiConfig) (finalResidual float64, checksum float64) {
	cfg = cfg.withDefaults()
	grid := newJacobiGrid(cfg.N, cfg.Hot)
	next := make([]float64, len(grid))
	var residual float64
	for it := 0; it < cfg.Iters; it++ {
		residual = referenceSweep(grid, next, cfg.N)
		grid, next = next, grid
	}
	var sum float64
	for _, v := range grid {
		sum += v
	}
	return residual, sum
}

// referenceSweep relaxes grid into next (the boundary copied) and returns the
// residual: JacobiReference's own two-grid stencil, kept apart from relaxRow
// as an independent oracle.
func referenceSweep(grid, next []float64, n int) float64 {
	side := n + 2
	copy(next, grid)
	var residual float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			idx := i*side + j
			v := 0.25 * (grid[idx-1] + grid[idx+1] + grid[idx-side] + grid[idx+side])
			if d := math.Abs(v - grid[idx]); d > residual {
				residual = d
			}
			next[idx] = v
		}
	}
	return residual
}
