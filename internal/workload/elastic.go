package workload

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"autoresched/internal/malleable"
	"autoresched/internal/mpi"
)

// ElasticJacobi is the Jacobi relaxation as a malleable.App: the same
// sweep as Jacobi/JacobiReference, but over a row-block decomposition that
// can be cut for ANY world size 1..N — the first client of the
// malleability engine. Rank r of W owns interior rows
// [1 + r*N/W, 1 + (r+1)*N/W) as a block between two ghost rows;
// neighbouring ranks exchange one halo row per sweep. The block is relaxed
// in place by Jacobi's own sweep, jacobiSweep, so a run that resizes
// mid-flight is bit-identical to a fixed-size run and to the serial
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
	for r := range shards {
		lo, hi := 1+r*g.N/world, 1+(r+1)*g.N/world
		var err error
		if shards[r], err = gobEncode(jacobiShard{N: g.N, Hot: g.Hot, Lo: lo, Hi: hi, Rows: g.Grid[lo*side : hi*side]}); err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// decodeShard decodes a shard and checks that its rows fill [Lo, Hi).
func decodeShard(b []byte) (sh jacobiShard, err error) {
	if err = gobDecode(b, &sh); err == nil && (sh.Hi <= sh.Lo || len(sh.Rows) != (sh.Hi-sh.Lo)*(sh.N+2)) {
		err = fmt.Errorf("%d values for rows [%d,%d)", len(sh.Rows), sh.Lo, sh.Hi)
	}
	return sh, err
}

// Merge implements malleable.App: reassemble the full grid. The boundary
// rows are reconstructed from the config (top row Hot, bottom row zero),
// exactly as newJacobiGrid laid them out.
func (a *ElasticJacobi) Merge(shards [][]byte) ([]byte, error) {
	var g jacobiGlobal
	wantLo := 1
	for i, b := range shards {
		sh, err := decodeShard(b)
		if err != nil {
			return nil, fmt.Errorf("workload: elastic jacobi shard %d: %w", i, err)
		}
		if i == 0 {
			g = jacobiGlobal{N: sh.N, Hot: sh.Hot, Grid: newJacobiGrid(sh.N, sh.Hot)}
		}
		if sh.N != g.N || sh.Lo != wantLo {
			return nil, fmt.Errorf("workload: elastic jacobi shard %d covers rows [%d,%d), want start %d", i, sh.Lo, sh.Hi, wantLo)
		}
		copy(g.Grid[sh.Lo*(g.N+2):], sh.Rows)
		wantLo = sh.Hi
	}
	if len(shards) == 0 || wantLo != g.N+1 {
		return nil, fmt.Errorf("workload: elastic jacobi merge of %d shards covers rows [1,%d), want [1,%d)", len(shards), wantLo, g.N+1)
	}
	return gobEncode(g)
}

// Halo tags, well below the malleability engine's reserved band.
const (
	tagHaloUp   = 11 // a rank's first row, flowing to rank-1
	tagHaloDown = 12 // a rank's last row, flowing to rank+1
)

// elasticBlock is one rank's shard between steps: its rows live in rows,
// between a ghost row above and one below, and Rows views the interior.
type elasticBlock struct {
	jacobiShard
	work    float64   // CPU work per step
	rows    []float64 // ghost row, Rows, ghost row
	g       rows      // rows, boxed once
	scratch []float64 // the sweep's four rotating rows
}

// Open implements malleable.App.
func (a *ElasticJacobi) Open(shard []byte) (malleable.Block, error) {
	sh, err := decodeShard(shard)
	if err != nil {
		return nil, fmt.Errorf("workload: elastic jacobi shard: %w", err)
	}
	side := sh.N + 2
	b := &elasticBlock{jacobiShard: sh, work: float64(sh.Hi-sh.Lo) * float64(sh.N) * a.WorkPerCell}
	b.rows = make([]float64, len(sh.Rows)+2*side)
	copy(b.rows[side:], sh.Rows)
	b.Rows, b.g, b.scratch = b.rows[side:len(b.rows)-side], flatRows(b.rows), make([]float64, 4*side)
	return b, nil
}

// Step implements malleable.Block: one relaxation sweep over the owned rows,
// after a halo exchange with both neighbours in the current world.
func (b *elasticBlock) Step(rc *malleable.Rank) error {
	if err := rc.Compute(b.work); err != nil {
		return err
	}
	side := b.N + 2
	comm, r, w := rc.Comm(), rc.Rank(), rc.World()
	if r > 0 {
		if err := halo(comm, b.Rows[:side], b.rows[:side], r-1, tagHaloUp, tagHaloDown); err != nil {
			return err
		}
	}
	if r < w-1 {
		if err := halo(comm, b.Rows[len(b.Rows)-side:], b.rows[len(b.rows)-side:], r+1, tagHaloDown, tagHaloUp); err != nil {
			return err
		}
	}
	b.relax(r == 0, r == w-1)
	return nil
}

// halo sends row to peer and receives the peer's row into ghost.
func halo(comm *mpi.Comm, row, ghost []float64, peer, sendTag, recvTag int) error {
	got := ghost[:len(ghost):len(ghost)]
	if _, err := comm.SendRecv(row, peer, sendTag, &got, peer, recvTag); err != nil {
		return fmt.Errorf("workload: halo with rank %d: %w", peer, err)
	}
	copy(ghost, got) // a no-op when the decode filled ghost in place
	return nil
}

// relax fills the ghost rows at the grid's edges, the hot top row and the
// zero bottom row, and relaxes the block in place.
//
//hot:path
func (b *elasticBlock) relax(top, bottom bool) {
	side, s := b.N+2, b.scratch
	if top {
		for j := range side {
			b.rows[j] = b.Hot
		}
	}
	if bottom {
		clear(b.rows[len(b.rows)-side:])
	}
	jacobiSweep(b.g, b.Hi-b.Lo, s[:side], s[side:2*side], s[2*side:3*side], s[3*side:])
}

// Encode implements malleable.Block: the interior rows, gob-encoded into a
// buffer of their own.
func (b *elasticBlock) Encode() ([]byte, error) { return gobEncode(b.jacobiShard) }

// Size implements malleable.Block: the rows' bytes, ghost rows included.
func (b *elasticBlock) Size() int64 { return 8 * int64(len(b.rows)) }

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
