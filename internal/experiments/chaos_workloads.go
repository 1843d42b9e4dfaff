package experiments

import (
	"fmt"
	"strings"
	"sync"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/malleable"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// chaosApp is the name the tree workload is launched and bound under.
const chaosApp = "test_tree"

// treeLoad is the checksummed tree computation: one app launched on ws1,
// every round's sum checked against the expected one.
type treeLoad struct {
	// paged gives the tree a paged bulk region, which makes its migrations
	// eligible for the live path.
	paged bool

	cfg  workload.TreeConfig
	app  *core.App
	mu   sync.Mutex
	sums map[int]int64
}

func (t *treeLoad) launch(r *chaosRig) error {
	t.cfg = workload.TreeConfig{
		Levels: 10, Rounds: 40, Seed: r.cfg.Seed + 1,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	if t.paged {
		t.cfg.BallastBytes = 4 << 20
		t.cfg.PagedBallast = true
	}
	t.sums = map[int]int64{}
	t.cfg.OnSum = func(round int, sum int64) {
		t.mu.Lock()
		t.sums[round] = sum
		t.mu.Unlock()
	}
	app, err := r.sys.Launch(chaosApp, "ws1", t.cfg.Schema(hostSpeed), workload.TestTree(t.cfg))
	if err != nil {
		return err
	}
	t.app = app
	r.in.BindApp(chaosApp, app)
	return nil
}

func (t *treeLoad) settled(*chaosRig) *vclock.Event { return t.app.Settled() }

// putDown kills the current incarnation; repeated, it exhausts the app's
// failover budget.
func (t *treeLoad) putDown(*chaosRig) { t.app.Process().Kill() }

func (t *treeLoad) verify(_ *chaosRig, row *ChaosRow) {
	row.FinalHost = t.app.Host()
	row.Checkpoints = t.app.Process().Checkpoints()
	row.Retries = t.app.Retries()
	if err := t.app.Wait(); err != nil {
		row.FinalErr = err.Error()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	row.Correct = len(t.sums) == t.cfg.Rounds
	for round, sum := range workload.ExpectedSums(t.cfg) {
		if t.sums[round] != sum {
			row.Correct = false
		}
	}
}

// Jacobi configurations of the gang pair. On three hosts the low-priority
// gang of two ("batch") runs long enough that the high-priority gang of two
// ("express", submitted at 45 s) finds only one free host and must preempt.
var (
	gangBatchCfg   = workload.JacobiConfig{N: 16, Iters: 600, PollEvery: 5, WorkPerCell: 500}
	gangExpressCfg = workload.JacobiConfig{N: 16, Iters: 100, PollEvery: 5, WorkPerCell: 500}
)

// gangLoad is the batch/express gang pair. It launches nothing itself: it
// binds the two specs, and the plan's submit-job events feed them to the
// queue.
type gangLoad struct {
	mu     sync.Mutex
	finals map[string]float64
}

// rank builds a rank factory for one job: every rank runs an independent
// Jacobi solve with registered state (so eviction checkpoints carry real
// progress), and reports its final residual for the correctness check.
func (g *gangLoad) rank(job string, cfg workload.JacobiConfig) func(rank, gang int) hpcm.Main {
	return func(rank, gang int) hpcm.Main {
		jc := cfg
		name := jobs.RankName(job, rank, gang)
		jc.OnResidual = func(iter int, residual float64) {
			if iter != jc.Iters {
				return
			}
			g.mu.Lock()
			g.finals[name] = residual
			g.mu.Unlock()
		}
		return workload.Jacobi(jc)
	}
}

func (g *gangLoad) launch(r *chaosRig) error {
	g.finals = make(map[string]float64)
	r.in.BindSpec(jobs.Spec{Name: "batch", Gang: 2, Priority: 0, Rank: g.rank("batch", gangBatchCfg)})
	r.in.BindSpec(jobs.Spec{Name: "express", Gang: 2, Priority: 2, Rank: g.rank("express", gangExpressCfg)})
	return nil
}

// settled fires once the plan has submitted everything it will and every
// submitted job is done.
func (g *gangLoad) settled(r *chaosRig) *vclock.Event {
	ev := new(vclock.Event)
	clock := r.sys.Clock()
	vclock.Go(clock, func() {
		defer ev.Fire()
		vclock.Await(clock, r.in.Done())
		for _, j := range r.in.Jobs() {
			vclock.Await(clock, j.Done())
		}
	})
	return ev
}

// putDown cancels the survivors: a job stuck in the queue or a wedged
// eviction.
func (g *gangLoad) putDown(r *chaosRig) {
	for _, j := range r.in.Jobs() {
		if !j.Done().Fired() {
			_ = r.sys.CancelJob(j.Name()) // refused mid-admission; the rig retries
		}
	}
}

func (g *gangLoad) verify(r *chaosRig, row *ChaosRow) {
	// The orphaned-lease check: every reservation taken during the run must
	// have been committed or rolled back by now, crash or no crash.
	reserved := r.sys.Registry().Reserved()
	r.note("check reservations-outstanding=%d", len(reserved))
	submitted := r.in.Jobs()
	var errs []string
	for _, j := range submitted {
		if err := j.Err(); err != nil {
			errs = append(errs, j.Name()+": "+err.Error())
		}
	}
	if len(reserved) > 0 {
		errs = append(errs, fmt.Sprintf("orphaned reservations: %v", reserved))
	}
	row.FinalErr = strings.Join(errs, "; ")

	// All four ranks — the killed one included, whether it resumed from an
	// older image or cold-started — converged to the reference residual.
	wantBatch, _ := workload.JacobiReference(gangBatchCfg)
	wantExpress, _ := workload.JacobiReference(gangExpressCfg)
	want := map[string]float64{
		jobs.RankName("batch", 0, 2):   wantBatch,
		jobs.RankName("batch", 1, 2):   wantBatch,
		jobs.RankName("express", 0, 2): wantExpress,
		jobs.RankName("express", 1, 2): wantExpress,
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	row.Correct = len(submitted) == 2
	for name, w := range want {
		if got, ok := g.finals[name]; !ok || got != w {
			row.Correct = false
		}
	}
}

// elasticLoad is an elastic Jacobi job on the first four hosts, run by the
// malleability engine on the rig's universe and cluster. Its resize phases
// go to the injector's sink, where the resize traps wait, and the injector
// holds the job, so a crashed host takes its ranks with it.
type elasticLoad struct {
	app *workload.ElasticJacobi
	job *malleable.Job
}

func (e *elasticLoad) launch(r *chaosRig) error {
	e.app = &workload.ElasticJacobi{N: 24, Iters: 60, WorkPerCell: 35000}
	job, err := malleable.Start(malleable.Options{
		Universe:     r.sys.Universe(),
		App:          e.app,
		Hosts:        r.sys.Cluster(),
		InitialHosts: r.names[:4],
		Events:       r.in.Sink(),
		Metrics:      r.mreg,
	})
	if err != nil {
		return err
	}
	e.job = job
	r.in.BindElastic(job)
	return nil
}

func (e *elasticLoad) settled(*chaosRig) *vclock.Event { return e.job.Done() }

func (e *elasticLoad) putDown(*chaosRig) { e.job.Stop() }

func (e *elasticLoad) verify(_ *chaosRig, row *ChaosRow) {
	result, err := e.job.Wait()
	row.FinalHost = e.job.Placement()[0]
	if err != nil {
		row.FinalErr = err.Error()
		return
	}
	sum, cerr := workload.ElasticJacobiChecksum(result)
	_, want := workload.JacobiReference(workload.JacobiConfig{N: e.app.N, Iters: e.app.Iters})
	row.Correct = cerr == nil && sum == want
}
