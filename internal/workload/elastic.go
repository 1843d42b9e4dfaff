package workload

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"autoresched/internal/malleable"
)

// ElasticJacobi is the Jacobi relaxation as a malleable.App: the same
// sweep as Jacobi/JacobiReference, but over a row-block decomposition that
// can be cut for ANY world size 1..N — the first client of the
// malleability engine. Rank r of W owns interior rows
// [1 + r*N/W, 1 + (r+1)*N/W); neighbouring ranks exchange one halo row per
// sweep. Rows are relaxed by Jacobi's row kernel, relaxRow, so a run that
// resizes mid-flight is bit-identical to a fixed-size run and to the serial
// reference.
type ElasticJacobi struct {
	// N is the interior grid dimension.
	N int
	// Iters is the number of relaxation sweeps.
	Iters int
	// WorkPerCell is the CPU cost per cell per sweep, in host work units.
	WorkPerCell float64
}

// elasticHot is the top-edge boundary temperature, JacobiConfig's default.
const elasticHot = 100.0

// Name implements malleable.App.
func (a *ElasticJacobi) Name() string { return "elastic-jacobi" }

// Steps implements malleable.App.
func (a *ElasticJacobi) Steps() int { return a.Iters }

// jacobiGlobal is the gob-encoded global state: the full (N+2)^2 grid.
type jacobiGlobal struct {
	N    int
	Hot  float64
	Grid []float64
}

// jacobiShard is the gob-encoded per-rank state: interior rows [Lo, Hi)
// of the grid, each row side = N+2 values long.
type jacobiShard struct {
	N      int
	Hot    float64
	Lo, Hi int
	Rows   []float64
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(b []byte, ptr any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(ptr)
}

// Fresh implements malleable.App: zero interior, elasticHot along the top
// row.
func (a *ElasticJacobi) Fresh() ([]byte, error) {
	if a.N <= 0 || a.Iters <= 0 {
		return nil, fmt.Errorf("workload: bad elastic jacobi config %+v", *a)
	}
	return gobEncode(jacobiGlobal{N: a.N, Hot: elasticHot, Grid: newJacobiGrid(a.N, elasticHot)})
}

// Split implements malleable.App: row-block decomposition. Fails for
// world sizes the grid cannot feed (more ranks than interior rows).
func (a *ElasticJacobi) Split(global []byte, world int) ([][]byte, error) {
	var g jacobiGlobal
	if err := gobDecode(global, &g); err != nil {
		return nil, fmt.Errorf("workload: elastic jacobi global: %w", err)
	}
	if world < 1 || world > g.N {
		return nil, fmt.Errorf("workload: elastic jacobi cannot split %d rows across %d ranks", g.N, world)
	}
	side := g.N + 2
	shards := make([][]byte, world)
	for r := 0; r < world; r++ {
		lo := 1 + r*g.N/world
		hi := 1 + (r+1)*g.N/world
		sh := jacobiShard{
			N: g.N, Hot: g.Hot, Lo: lo, Hi: hi,
			Rows: append([]float64(nil), g.Grid[lo*side:hi*side]...),
		}
		b, err := gobEncode(sh)
		if err != nil {
			return nil, err
		}
		shards[r] = b
	}
	return shards, nil
}

// Merge implements malleable.App: reassemble the full grid. The boundary
// rows are reconstructed from the config (top row Hot, bottom row zero),
// exactly as newJacobiGrid laid them out.
func (a *ElasticJacobi) Merge(shards [][]byte) ([]byte, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("workload: elastic jacobi merge of no shards")
	}
	var g jacobiGlobal
	wantLo := 1
	for i, b := range shards {
		var sh jacobiShard
		if err := gobDecode(b, &sh); err != nil {
			return nil, fmt.Errorf("workload: elastic jacobi shard %d: %w", i, err)
		}
		if i == 0 {
			side := sh.N + 2
			g = jacobiGlobal{N: sh.N, Hot: sh.Hot, Grid: make([]float64, side*side)}
			for j := 0; j < side; j++ {
				g.Grid[j] = sh.Hot
			}
		}
		if sh.N != g.N || sh.Lo != wantLo || sh.Hi < sh.Lo {
			return nil, fmt.Errorf("workload: elastic jacobi shard %d covers rows [%d,%d), want start %d", i, sh.Lo, sh.Hi, wantLo)
		}
		side := g.N + 2
		if len(sh.Rows) != (sh.Hi-sh.Lo)*side {
			return nil, fmt.Errorf("workload: elastic jacobi shard %d has %d values for %d rows", i, len(sh.Rows), sh.Hi-sh.Lo)
		}
		copy(g.Grid[sh.Lo*side:], sh.Rows)
		wantLo = sh.Hi
	}
	if wantLo != g.N+1 {
		return nil, fmt.Errorf("workload: elastic jacobi shards cover rows [1,%d), want [1,%d)", wantLo, g.N+1)
	}
	return gobEncode(g)
}

// Halo tags, well below the malleability engine's reserved band.
const (
	tagHaloUp   = 11 // a rank's first row, flowing to rank-1
	tagHaloDown = 12 // a rank's last row, flowing to rank+1
)

// Step implements malleable.App: one relaxation sweep over the owned rows,
// after a halo exchange with both neighbours in the current world.
func (a *ElasticJacobi) Step(rc *malleable.Rank, shard []byte) ([]byte, error) {
	var sh jacobiShard
	if err := gobDecode(shard, &sh); err != nil {
		return nil, fmt.Errorf("workload: elastic jacobi shard: %w", err)
	}
	side := sh.N + 2
	nrows := sh.Hi - sh.Lo
	if err := rc.Compute(float64(nrows) * float64(sh.N) * a.WorkPerCell); err != nil {
		return nil, err
	}
	comm, r, w := rc.Comm(), rc.Rank(), rc.World()
	up := make([]float64, side)
	down := make([]float64, side)
	if r > 0 {
		first := sh.Rows[:side]
		if _, err := comm.SendRecv(first, r-1, tagHaloUp, &up, r-1, tagHaloDown); err != nil {
			return nil, fmt.Errorf("workload: halo with rank %d: %w", r-1, err)
		}
	} else {
		// Row 0 is the hot boundary, every column.
		for j := range up {
			up[j] = sh.Hot
		}
	}
	if r < w-1 {
		last := sh.Rows[(nrows-1)*side:]
		if _, err := comm.SendRecv(last, r+1, tagHaloDown, &down, r+1, tagHaloUp); err != nil {
			return nil, fmt.Errorf("workload: halo with rank %d: %w", r+1, err)
		}
	}
	// else: row N+1 stays the zero boundary row (down is already zero).

	next := make([]float64, len(sh.Rows))
	for i, rowUp := 0, up; i < nrows; i++ {
		cur, rowDown := sh.Rows[i*side:(i+1)*side], down
		if i < nrows-1 {
			rowDown = sh.Rows[(i+1)*side : (i+2)*side]
		}
		relaxRow(rowUp, cur, rowDown, next[i*side:(i+1)*side], 0)
		rowUp = cur
	}
	sh.Rows = next
	return gobEncode(sh)
}

// ElasticJacobiChecksum sums a merged global state in grid order — the
// same checksum JacobiReference returns, for bit-exact comparison.
func ElasticJacobiChecksum(global []byte) (float64, error) {
	var g jacobiGlobal
	if err := gobDecode(global, &g); err != nil {
		return 0, fmt.Errorf("workload: elastic jacobi global: %w", err)
	}
	var sum float64
	for _, v := range g.Grid {
		sum += v
	}
	return sum, nil
}

var _ malleable.App = (*ElasticJacobi)(nil)
