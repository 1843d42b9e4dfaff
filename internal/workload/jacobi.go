package workload

import (
	"fmt"
	"math"

	"autoresched/internal/hpcm"
	"autoresched/internal/livemig"
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
	// Paged stores the grid in a livemig.Pages region (one page per grid
	// row) written through the change-suppressing paged API, making the run
	// eligible for iterative-precopy live migration. The sweep is bit-exact
	// with the flat-grid path and JacobiReference.
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

// Jacobi returns the migration-enabled application body.
func Jacobi(cfg JacobiConfig) hpcm.Main {
	cfg = cfg.withDefaults()
	return func(ctx *hpcm.Context) error {
		if cfg.N <= 0 || cfg.Iters <= 0 {
			return fmt.Errorf("workload: bad jacobi config %+v", cfg)
		}
		if cfg.Paged {
			return jacobiPaged(ctx, cfg)
		}
		var st jacobiState
		var grid []float64
		if err := ctx.Register("state", &st); err != nil {
			return err
		}
		if err := ctx.RegisterLazy("grid", &grid); err != nil {
			return err
		}
		if ctx.Resumed() {
			if err := ctx.Await("grid"); err != nil {
				return err
			}
		} else {
			grid = newJacobiGrid(cfg.N, cfg.Hot)
		}
		ctx.SetMemory(int64(len(grid))*8 + 1<<20)

		sweepWork := float64(cfg.N) * float64(cfg.N) * cfg.WorkPerCell
		next := make([]float64, len(grid))
		for st.Iter < cfg.Iters {
			if err := ctx.Compute(sweepWork * float64(min(cfg.PollEvery, cfg.Iters-st.Iter))); err != nil {
				return err
			}
			for k := 0; k < cfg.PollEvery && st.Iter < cfg.Iters; k++ {
				st.Residual = jacobiSweep(grid, next, cfg.N)
				grid, next = next, grid
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

// jacobiPaged is the Paged=true body: the grid lives in a livemig.Pages
// region sized one row per page, so the per-sweep dirty set is exactly the
// rows the stencil changed — the signal the precopy driver's convergence
// rule feeds on.
func jacobiPaged(ctx *hpcm.Context, cfg JacobiConfig) error {
	var st jacobiState
	if err := ctx.Register("state", &st); err != nil {
		return err
	}
	side := cfg.N + 2
	pg, err := ctx.RegisterPages("grid", side*side*8, side*8)
	if err != nil {
		return err
	}
	if ctx.Resumed() {
		if err := ctx.Await("grid"); err != nil {
			return err
		}
	} else {
		hot := make([]float64, side)
		for j := range hot {
			hot[j] = cfg.Hot
		}
		pg.WriteFloat64s(0, hot)
	}
	ctx.SetMemory(int64(pg.Len()) + 1<<20)

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
			st.Residual = jacobiPagedSweep(pg, cfg.N, prev, cur, nxt, out)
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

// jacobiPagedSweep runs one in-place relaxation sweep over the paged grid
// using three rotating row buffers, so each new row is computed from the
// previous sweep's values even though rows are overwritten as it goes. The
// caller supplies the four side-length scratch rows. Addition order matches
// JacobiReference (left+right+up+down), keeping the two paths bit-identical.
func jacobiPagedSweep(pg *livemig.Pages, n int, prev, cur, nxt, out []float64) float64 {
	side := n + 2
	pg.ReadFloat64s(0, prev)
	pg.ReadFloat64s(side, cur)
	var residual float64
	for i := 1; i <= n; i++ {
		pg.ReadFloat64s((i+1)*side, nxt)
		out[0] = cur[0]
		out[side-1] = cur[side-1]
		for j := 1; j <= n; j++ {
			v := 0.25 * (cur[j-1] + cur[j+1] + prev[j] + nxt[j])
			if d := math.Abs(v - cur[j]); d > residual {
				residual = d
			}
			out[j] = v
		}
		pg.WriteFloat64s(i*side, out)
		// The old prev buffer becomes scratch for the next row read.
		prev, cur, nxt = cur, nxt, prev
	}
	return residual
}

// jacobiSweep runs one relaxation sweep of the flat grid into next (the
// boundary copied, the interior relaxed) and returns the residual.
func jacobiSweep(grid, next []float64, n int) float64 {
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
		residual = jacobiSweep(grid, next, cfg.N)
		grid, next = next, grid
	}
	var sum float64
	for _, v := range grid {
		sum += v
	}
	return residual, sum
}
