// Package workload provides the applications and load generators of the
// paper's evaluation: the migration-enabled "test_tree" benchmark, the
// background CPU load that overloads the source workstation, and the
// communication load that keeps workstation 2 busy talking to workstation 5
// in the Table 2 scenario.
package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"autoresched/internal/hpcm"
	"autoresched/internal/livemig"
	"autoresched/internal/rules"
)

// TreeConfig parameterises test_tree: "creates binary trees with specified
// number of levels, assigns a random number to each node of the trees,
// sorts the trees and computes the sum of all the tree nodes".
type TreeConfig struct {
	// Levels is the tree depth; a tree holds 2^Levels - 1 nodes.
	Levels int
	// Rounds is how many trees are processed. Poll-points sit between
	// rounds and between the phases of a round.
	Rounds int
	// Seed feeds the per-node random values.
	Seed int64
	// WorkPerNode is the CPU cost, in host work units, each node costs in
	// each phase. It calibrates how long a round takes.
	WorkPerNode float64
	// BytesPerNode sizes the memory image for transfer accounting.
	BytesPerNode int64
	// BallastBytes adds a bulk lazy-state region of the given size,
	// controlling how much data a migration must move (the paper's
	// "estimated communication data size").
	BallastBytes int64
	// PagedBallast stores the ballast in a livemig.Pages region instead of a
	// flat lazy blob, making the run eligible for iterative-precopy live
	// migration. One page is stamped per round, so the steady-state dirty
	// rate is low and precopy converges.
	PagedBallast bool
	// OnSum, if set, receives each round's checksum.
	OnSum func(round int, sum int64)
}

// Nodes returns the per-tree node count.
func (cfg TreeConfig) Nodes() int {
	if cfg.Levels <= 0 {
		return 0
	}
	return 1<<cfg.Levels - 1
}

// TotalWork estimates the whole run's CPU cost in work units: four phases
// (build, assign, sort, sum) per round, where sorting costs Levels passes.
func (cfg TreeConfig) TotalWork() float64 {
	n := float64(cfg.Nodes())
	perRound := n*cfg.WorkPerNode*3 + n*cfg.WorkPerNode*float64(cfg.Levels)
	return perRound * float64(cfg.Rounds)
}

// Schema builds the application schema test_tree registers with, estimating
// execution time on a reference workstation of the given speed.
func (cfg TreeConfig) Schema(refSpeed float64) *rules.Schema {
	s := &rules.Schema{
		Name:            "test_tree",
		Characteristics: []rules.Characteristic{rules.ComputeIntensive},
		CommBytes:       int64(cfg.Nodes())*cfg.BytesPerNode + cfg.BallastBytes + 4096,
		Estimate: rules.Estimate{
			Seconds:  cfg.TotalWork() / refSpeed,
			CPUSpeed: refSpeed,
		},
	}
	return s
}

// treeState is the migratable memory state of a run.
type treeState struct {
	Round int
	Phase int
	Sums  []int64
}

// Phases of one round.
const (
	phaseBuild = iota
	phaseAssign
	phaseSort
	phaseSum
	phaseCount
)

var phaseNames = [...]string{"build", "assign", "sort", "sum"}

// TestTree returns the migration-enabled application body. The tree itself
// is lazy bulk state (streamed during migration while execution resumes);
// the round/phase counters and per-round checksums are eager state.
func TestTree(cfg TreeConfig) hpcm.Main {
	return func(ctx *hpcm.Context) error {
		if cfg.Levels <= 0 || cfg.Rounds <= 0 {
			return fmt.Errorf("workload: bad tree config %+v", cfg)
		}
		var st treeState
		var tree []int64
		var ballast []byte
		var paged *livemig.Pages
		if err := ctx.Register("state", &st); err != nil {
			return err
		}
		if err := ctx.RegisterLazy("tree", &tree); err != nil {
			return err
		}
		switch {
		case cfg.BallastBytes > 0 && cfg.PagedBallast:
			pg, err := livemig.NewPages(int(cfg.BallastBytes), 0)
			if err != nil {
				return err
			}
			if err := ctx.RegisterPages("ballast", pg); err != nil {
				return err
			}
			// Unlike the flat ballast, the paged region is written every
			// round, so a resumed incarnation must await it before stamping.
			if ctx.Resumed() {
				if err := ctx.Await("ballast"); err != nil {
					return err
				}
			}
			paged = pg
		case cfg.BallastBytes > 0:
			if err := ctx.RegisterLazy("ballast", &ballast); err != nil {
				return err
			}
			if !ctx.Resumed() {
				ballast = make([]byte, cfg.BallastBytes)
			}
			// Resumed incarnations deliberately do NOT await the ballast:
			// its restoration streams in parallel with resumed execution,
			// the overlap Section 5.2 and Figure 8 describe.
		}
		if ctx.Resumed() {
			if err := ctx.Await("tree"); err != nil {
				return err
			}
		}
		nodes := cfg.Nodes()
		work := cfg.WorkPerNode * float64(nodes)
		ctx.SetMemory(int64(nodes)*cfg.BytesPerNode + cfg.BallastBytes + 1<<20)

		for st.Round < cfg.Rounds {
			switch st.Phase {
			case phaseBuild:
				if err := ctx.Compute(work); err != nil {
					return err
				}
				tree = make([]int64, nodes)
			case phaseAssign:
				if err := ctx.Compute(work); err != nil {
					return err
				}
				// Deterministic per (seed, round) so checksums are
				// reproducible across migrations.
				rng := rand.New(rand.NewSource(cfg.Seed + int64(st.Round)))
				for i := range tree {
					tree[i] = int64(rng.Uint32())
				}
			case phaseSort:
				if err := ctx.Compute(work * float64(cfg.Levels)); err != nil {
					return err
				}
				slices.Sort(tree)
			case phaseSum:
				if err := ctx.Compute(work); err != nil {
					return err
				}
				var sum int64
				for _, v := range tree {
					sum += v
				}
				st.Sums = append(st.Sums, sum)
				if paged != nil {
					// Stamp one page per round: enough churn for precopy to
					// have deltas to ship, sparse enough to converge.
					if words := paged.Len() / 8; words > 0 {
						w := (st.Round * (paged.PageSize() / 8)) % words
						paged.SetFloat64(w, float64(st.Round+1))
					}
				}
				if cfg.OnSum != nil {
					cfg.OnSum(st.Round, sum)
				}
			}
			// Advance the persistent cursor BEFORE the poll-point so a
			// resumed incarnation continues with the next phase instead of
			// redoing this one. A poll-point follows every phase; the paper
			// measured a 1.4 s worst-case time-to-poll-point with this
			// granularity.
			label := fmt.Sprintf("round-%d/%s", st.Round, phaseNames[st.Phase])
			st.Phase++
			if st.Phase == phaseCount {
				st.Phase = 0
				st.Round++
			}
			if err := ctx.PollPoint(label); err != nil {
				return err
			}
		}
		return nil
	}
}

// ExpectedSums computes the checksums a run must produce, for verification
// independent of where the computation executed.
func ExpectedSums(cfg TreeConfig) []int64 {
	sums := make([]int64, cfg.Rounds)
	nodes := cfg.Nodes()
	for round := 0; round < cfg.Rounds; round++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(round)))
		var sum int64
		for i := 0; i < nodes; i++ {
			sum += int64(rng.Uint32())
		}
		sums[round] = sum
	}
	return sums
}
