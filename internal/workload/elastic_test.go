package workload

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"autoresched/internal/malleable"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// resizeGate wraps an ElasticJacobi to run a hook on rank 0 at the start of
// a chosen step, once: to fire a Propose, or to hand a test the rank and
// its block.
type resizeGate struct {
	*ElasticJacobi
	at   int
	once sync.Once
	hook func(rc *malleable.Rank, blk malleable.Block)
}

func (g *resizeGate) Open(shard []byte) (malleable.Block, error) {
	blk, err := g.ElasticJacobi.Open(shard)
	if err != nil {
		return nil, err
	}
	return &gatedBlock{Block: blk, gate: g}, nil
}

// gatedBlock is a block of a resizeGate's ElasticJacobi.
type gatedBlock struct {
	malleable.Block
	gate *resizeGate
}

func (b *gatedBlock) Step(rc *malleable.Rank) error {
	if rc.Rank() == 0 && rc.Step() == b.gate.at {
		b.gate.once.Do(func() { b.gate.hook(rc, b.Block) })
	}
	return b.Block.Step(rc)
}

// jobRef hands the started *Job to the gate hook, which runs on a rank
// goroutine possibly before Start returns to the test.
type jobRef struct {
	mu sync.Mutex
	j  *malleable.Job
}

func (r *jobRef) set(j *malleable.Job) { r.mu.Lock(); r.j = j; r.mu.Unlock() }

func (r *jobRef) get() *malleable.Job {
	for {
		r.mu.Lock()
		j := r.j
		r.mu.Unlock()
		if j != nil {
			return j
		}
		runtime.Gosched()
	}
}

func elasticHosts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("eh%d", i+1)
	}
	return out
}

// runElastic runs the app on `from` ranks, optionally resizing to `to`
// ranks at step `at` (to == 0 disables), and returns the final global
// state bytes.
func runElastic(t *testing.T, app *ElasticJacobi, from, to, at int) []byte {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	var jr jobRef
	var body malleable.App = app
	if to != 0 {
		body = &resizeGate{ElasticJacobi: app, at: at, hook: func(*malleable.Rank, malleable.Block) {
			if err := jr.get().Propose(elasticHosts(to)); err != nil {
				t.Errorf("Propose %d->%d: %v", from, to, err)
			}
		}}
	}
	j, err := malleable.Start(malleable.Options{
		Universe: u, App: body, InitialHosts: elasticHosts(from),
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait (world %d->%d): %v", from, to, err)
	}
	if to != 0 {
		if w := j.World(); w != to {
			t.Fatalf("final world = %d, want %d", w, to)
		}
	}
	return result
}

// TestElasticJacobiMatchesReference: an elastic run is bit-identical to the
// serial reference, for divisible and non-divisible row splits. The 13-row
// grid's few sweeps keep its sums exact whatever the stencil's addition
// order; the 130-row grid's 300 sweeps do not, so they pin that order too,
// fixed and across a mid-run resize.
func TestElasticJacobiMatchesReference(t *testing.T) {
	cases := []struct {
		n, iters, from, to, at int
	}{
		{13, 9, 1, 0, 0}, {13, 9, 2, 0, 0}, {13, 9, 3, 0, 0}, {13, 9, 5, 0, 0},
		{130, 300, 1, 0, 0}, {130, 300, 3, 0, 0}, {130, 300, 3, 5, 150},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("N%d/%dto%d", c.n, c.from, c.to), func(t *testing.T) {
			t.Parallel()
			app := &ElasticJacobi{N: c.n, Iters: c.iters}
			result := runElastic(t, app, c.from, c.to, c.at)
			sum, err := ElasticJacobiChecksum(result)
			if err != nil {
				t.Fatalf("checksum: %v", err)
			}
			_, want := JacobiReference(JacobiConfig{N: app.N, Iters: app.Iters})
			if math.Float64bits(sum) != math.Float64bits(want) {
				t.Errorf("checksum %v, want %v (must be bit-exact)", sum, want)
			}
		})
	}
}

// TestElasticJacobiRepartitionBitExact is the repartition property test:
// decompose at N ranks, reshape to M mid-run, and the final state must be
// bit-exact with a fresh fixed M-rank run — grow, shrink, and
// non-divisible splits of a 13-row grid.
func TestElasticJacobiRepartitionBitExact(t *testing.T) {
	pairs := []struct{ from, to int }{
		{1, 3}, // grow from serial
		{3, 1}, // collapse to serial
		{2, 5}, // grow, non-divisible both sides
		{5, 2}, // shrink, non-divisible both sides
		{3, 4}, // grow by one
		{4, 3}, // shrink by one
	}
	for _, p := range pairs {
		t.Run(fmt.Sprintf("%dto%d", p.from, p.to), func(t *testing.T) {
			app := &ElasticJacobi{N: 13, Iters: 9}
			resized := runElastic(t, app, p.from, p.to, 4)
			fixed := runElastic(t, &ElasticJacobi{N: 13, Iters: 9}, p.to, 0, 0)
			if !bytes.Equal(resized, fixed) {
				t.Errorf("resized %d->%d run differs from fixed %d-rank run", p.from, p.to, p.to)
			}
			sum, err := ElasticJacobiChecksum(resized)
			if err != nil {
				t.Fatalf("checksum: %v", err)
			}
			_, want := JacobiReference(JacobiConfig{N: app.N, Iters: app.Iters})
			if sum != want {
				t.Errorf("%d->%d: checksum %v, want reference %v", p.from, p.to, sum, want)
			}
		})
	}
}

// TestElasticBlockEncodesItsShard: a block opened from a shard encodes back
// to the same bytes, into a buffer of its own.
func TestElasticBlockEncodesItsShard(t *testing.T) {
	app := &ElasticJacobi{N: 13, Iters: 1}
	global, err := app.Fresh()
	if err != nil {
		t.Fatalf("Fresh: %v", err)
	}
	shards, err := app.Split(global, 3)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	for r, shard := range shards {
		blk, err := app.Open(shard)
		if err != nil {
			t.Fatalf("Open shard %d: %v", r, err)
		}
		first, err := blk.Encode()
		if err != nil || !bytes.Equal(first, shard) {
			t.Fatalf("shard %d: Encode = %d bytes, err %v; want the %d bytes opened", r, len(first), err, len(shard))
		}
		clear(first) // the engine hands a drained shard on; the block must not see it
		if again, err := blk.Encode(); err != nil || !bytes.Equal(again, shard) {
			t.Errorf("shard %d: a second Encode differs after the first one's buffer was cleared", r)
		}
	}
}

// TestElasticJacobiSplitRejectsOversizedWorld: more ranks than interior
// rows must fail, not produce empty shards.
func TestElasticJacobiSplitRejectsOversizedWorld(t *testing.T) {
	app := &ElasticJacobi{N: 4, Iters: 1}
	global, err := app.Fresh()
	if err != nil {
		t.Fatalf("Fresh: %v", err)
	}
	if _, err := app.Split(global, 5); err == nil {
		t.Fatal("Split across more ranks than rows succeeded")
	}
	if _, err := app.Split(global, 0); err == nil {
		t.Fatal("Split across zero ranks succeeded")
	}
}

// onFirstStep runs a one-rank job of app whose first step first hands the
// rank and its block to fn.
func onFirstStep(tb testing.TB, app *ElasticJacobi, fn func(rc *malleable.Rank, blk malleable.Block)) {
	tb.Helper()
	j, err := malleable.Start(malleable.Options{
		Universe:     mpi.NewUniverse(mpi.Options{Clock: vclock.NewAuto(vclock.Epoch)}),
		App:          &resizeGate{ElasticJacobi: app, hook: fn},
		InitialHosts: elasticHosts(1),
	})
	if err != nil {
		tb.Fatalf("Start: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		tb.Fatalf("Wait: %v", err)
	}
}

// TestElasticStepAllocatesNothing pins a one-rank step of an N=130 block at
// zero allocations: the block keeps its rows between steps and relaxes
// them in place. (A multi-rank step's halo is gob on the wire.)
func TestElasticStepAllocatesNothing(t *testing.T) {
	onFirstStep(t, &ElasticJacobi{N: 130, Iters: 1}, func(rc *malleable.Rank, blk malleable.Block) {
		var err error
		if a := testing.AllocsPerRun(20, func() { err = blk.Step(rc) }); a != 0 || err != nil {
			t.Errorf("one-rank elastic step: %v allocations, err %v; want 0, nil", a, err)
		}
	})
}

// BenchmarkElasticStep is one step of a one-rank N=130 elastic Jacobi
// block.
func BenchmarkElasticStep(b *testing.B) {
	onFirstStep(b, &ElasticJacobi{N: 130, Iters: 1}, func(rc *malleable.Rank, blk malleable.Block) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := blk.Step(rc); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}
