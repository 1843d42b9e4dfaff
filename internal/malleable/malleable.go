// Package malleable is the elastic-MPI control plane: it grows and shrinks
// the rank count of a running MPI job at runtime. The source paper migrates
// a fixed-size job between hosts; this package composes the same primitives
// — dynamic process management (Spawn + intercommunicator Merge), poll-point
// quiescence, and scheduler-driven placement — into full malleability in the
// sense of the DMR line of work: a resize proposal names a target host set,
// the job quiesces at the next poll-point, and the runtime reshapes the
// world in place.
//
// The protocol is drain-first: every rank's shard is gathered to the root
// before anything irreversible happens, so a victim host dying after the
// drain cannot lose state, and a freshly spawned rank dying before the
// commit aborts the resize cleanly back to the old world. A resize subsumes
// migration — proposing a same-size placement with different hosts moves
// ranks without changing the world size.
//
// Phases are announced synchronously on the unified event sink (the
// fault-injection trap surface, as for hpcm's migration phases) and timed
// into malleable/* histograms on the shared metrics registry.
package malleable

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// App is a re-decomposable application: its global state can be cut into
// one shard per rank for any world size, and reassembled from the shards.
// Shards are opaque byte blobs; the engine never interprets them. A resize
// at step s is invisible to the computation: Split(Merge(shards), M)
// continued for the remaining steps must produce the same global state as
// running the whole computation at M ranks (the bit-exactness contract the
// elastic jacobi workload is tested against).
type App interface {
	// Name labels the job in events and the process table.
	Name() string
	// Steps is the number of lockstep computation steps.
	Steps() int
	// Fresh produces the initial global state.
	Fresh() ([]byte, error)
	// Split cuts a global state into world shards, one per rank.
	Split(global []byte, world int) ([][]byte, error)
	// Merge reassembles the global state from all ranks' shards.
	Merge(shards [][]byte) ([]byte, error)
	// Step advances one rank's shard by one step. rc carries the rank's
	// identity, the world communicator for neighbour exchange, and CPU
	// charging on the current host.
	Step(rc *Rank, shard []byte) ([]byte, error)
}

// Phases of one resize attempt, in protocol order.
const (
	// PhasePropose: a target placement was handed to the job.
	PhasePropose = "propose"
	// PhaseQuiesce: every rank reached the poll-point and saw the announce.
	PhaseQuiesce = "quiesce"
	// PhaseReshape: the drain finished — every rank's shard is safe at the
	// root. Victims are expendable from this point on.
	PhaseReshape = "reshape"
	// PhaseSpawn: the new ranks (expansions only) are up and merged, but
	// hold no state yet — the window where losing one aborts the resize.
	PhaseSpawn = "spawn"
	// PhaseResume: the resize committed; the new world is computing.
	PhaseResume = "resume"
	// PhaseAbort: the resize was abandoned; the old world resumed intact.
	PhaseAbort = "abort"
)

// Event is one resize phase notification.
type Event struct {
	// Job is the job name.
	Job string
	// Phase is one of the Phase* constants.
	Phase string
	// Epoch numbers resize attempts from 1 (0 for PhasePropose, which
	// precedes epoch assignment).
	Epoch int
	// OldWorld and NewWorld are the world sizes either side of the resize.
	OldWorld, NewWorld int
	// Added and Removed are the hosts joining and leaving the placement.
	Added, Removed []string
	// Err carries the abort reason on PhaseAbort.
	Err string
}

// Metric names the engine records when Options.Metrics is set. All values
// are in virtual seconds.
const (
	// MetricQuiesceSeconds: Propose to every rank quiescing at the
	// poll-point.
	MetricQuiesceSeconds = "malleable/quiesce_seconds"
	// MetricReshapeSeconds: quiesce to resume — drain, spawn/retire, and
	// redistribution (committed resizes only).
	MetricReshapeSeconds = "malleable/reshape_seconds"
	// MetricResizeSeconds: Propose to resume, the full round trip.
	MetricResizeSeconds = "malleable/resize_seconds"
)

// Counter names the engine increments on Options.Metrics: resize outcomes
// and the ranks committed resizes spawned and retired.
const (
	CtrResizeCommitted = "malleable/resizes_committed"
	CtrResizeAborted   = "malleable/resizes_aborted"
	CtrRanksSpawned    = "malleable/ranks_spawned"
	CtrRanksRetired    = "malleable/ranks_retired"
)

// ErrStopped is the terminal error of a job cancelled with Stop.
var ErrStopped = errors.New("malleable: job stopped")

// errRetired is the internal clean-exit sentinel of a victim rank whose
// shrink committed.
var errRetired = errors.New("malleable: rank retired")

// errRankLost reports a rank that died before its shard was drained.
var errRankLost = errors.New("malleable: rank lost before drain")

// Options configures a Job.
type Options struct {
	// Universe supplies process creation and messaging. Required.
	Universe *mpi.Universe
	// App is the re-decomposable application body. Required.
	App App
	// Hosts binds ranks to host resources; nil runs unbound.
	Hosts hpcm.HostBinder
	// InitialHosts is the starting placement, one rank per host. Required,
	// non-empty; InitialHosts[0] carries rank 0, which is pinned for the
	// job's lifetime (a proposal dropping it is rejected).
	InitialHosts []string
	// Events, when set, receives each resize phase on the unified sink
	// (Source "malleable", Kind = phase, Payload = the Event). Delivery is
	// synchronous from the goroutine driving the resize (rank 0, or the
	// proposer for PhasePropose), which is what lets an metrics.On[Event]
	// subscriber crash a host at an exact protocol phase; keep sinks fast,
	// they are on the protocol's critical path.
	Events metrics.Sink
	// Metrics records the malleable/* histograms and counters; nil
	// disables.
	Metrics *metrics.Registry
}

// Rank is one incarnation's view during App.Step: its identity in the
// current world, the step number, the world communicator for neighbour
// exchange, and CPU charging on its host. The engine rewrites the identity
// at every committed resize; the pointer stays valid across resizes.
type Rank struct {
	env       *mpi.Env
	rec       *rankRec
	comm      *mpi.Comm
	rank      int
	world     int
	step      int
	placement []string
}

// Rank returns the caller's rank in the current world.
func (rc *Rank) Rank() int { return rc.rank }

// World returns the current world size.
func (rc *Rank) World() int { return rc.world }

// Step returns the current step number.
func (rc *Rank) Step() int { return rc.step }

// Comm returns the current world communicator.
func (rc *Rank) Comm() *mpi.Comm { return rc.comm }

// Compute charges CPU work to the rank's host, failing fast if the rank
// was killed by a crash.
func (rc *Rank) Compute(work float64) error {
	if rc.rec.killed.Load() {
		return mpi.ErrProcExited
	}
	if err := rc.rec.hp.Compute(work); err != nil {
		return err
	}
	if rc.rec.killed.Load() {
		return mpi.ErrProcExited
	}
	return nil
}

// rankRec is the job's bookkeeping for one live incarnation.
type rankRec struct {
	host   string
	env    *mpi.Env
	hp     hpcm.HostProc
	killed atomic.Bool
}

func (r *rankRec) kill() {
	r.killed.Store(true)
	r.env.Kill()
}

// proposal is a pending resize target.
type proposal struct {
	target []string
	at     time.Time
}

// Job is one running malleable application.
type Job struct {
	u       *mpi.Universe
	clock   vclock.Clock
	app     App
	name    string
	binder  hpcm.HostBinder
	events  metrics.Sink
	metrics *metrics.Registry

	mu              sync.Mutex
	pending         *proposal
	epochs          int // resize attempts announced so far
	committed       int
	aborted         int
	lastCommitEpoch int
	placement       []string
	dead            map[string]bool
	live            map[string][]*rankRec
	finished        bool
	result          []byte
	err             error

	wg   vclock.WaitGroup
	done chan struct{}
}

// Start launches the job: one rank per initial host, rank 0 on
// InitialHosts[0], the initial state split and scattered, and the step loop
// polling for resize proposals at every step boundary.
func Start(opts Options) (*Job, error) {
	if opts.Universe == nil {
		return nil, errors.New("malleable: Options.Universe is required")
	}
	if opts.App == nil {
		return nil, errors.New("malleable: Options.App is required")
	}
	if len(opts.InitialHosts) == 0 {
		return nil, errors.New("malleable: Options.InitialHosts is required")
	}
	if err := validatePlacement(opts.InitialHosts); err != nil {
		return nil, err
	}
	if opts.Hosts == nil {
		opts.Hosts = hpcm.NullBinder(opts.Universe.Clock())
	}
	if opts.Metrics != nil {
		// Pre-create the histograms so a metrics snapshot shows them
		// (empty) before the first resize.
		for _, name := range []string{
			MetricQuiesceSeconds, MetricReshapeSeconds, MetricResizeSeconds,
		} {
			opts.Metrics.Histogram(name)
		}
	}
	j := &Job{
		u:         opts.Universe,
		clock:     opts.Universe.Clock(),
		app:       opts.App,
		name:      opts.App.Name(),
		binder:    opts.Hosts,
		events:    opts.Events,
		metrics:   opts.Metrics,
		placement: append([]string(nil), opts.InitialHosts...),
		dead:      make(map[string]bool),
		live:      make(map[string][]*rankRec),
		done:      make(chan struct{}),
	}
	j.u.Start(opts.InitialHosts, j.rankMain)
	return j, nil
}

func validatePlacement(hosts []string) error {
	seen := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		if h == "" {
			return errors.New("malleable: empty host name in placement")
		}
		if seen[h] {
			return fmt.Errorf("malleable: duplicate host %q in placement (one rank per host)", h)
		}
		seen[h] = true
	}
	return nil
}

// Propose hands the job a target placement to resize to at the next
// poll-point: one rank per host, surviving hosts keep their ranks' relative
// order, new hosts append in the given order. The current rank-0 host must
// be in the target (the root is pinned). A later Propose before the next
// poll-point replaces an earlier one; a proposal equal to the current
// placement is dropped at the poll-point.
func (j *Job) Propose(target []string) error {
	if err := validatePlacement(target); err != nil {
		return err
	}
	if len(target) == 0 {
		return errors.New("malleable: empty target placement")
	}
	tgt := append([]string(nil), target...)
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return nil
	}
	root := j.placement[0]
	if !slices.Contains(tgt, root) {
		j.mu.Unlock()
		return fmt.Errorf("malleable: target drops the pinned root host %q", root)
	}
	j.pending = &proposal{target: tgt, at: j.clock.Now()}
	oldWorld := len(j.placement)
	j.mu.Unlock()
	j.emit(Event{Job: j.name, Phase: PhasePropose, OldWorld: oldWorld, NewWorld: len(tgt)})
	return nil
}

// takePending claims the pending proposal if it is still applicable to the
// current placement (root retained, actually a change). Called by rank 0 at
// each poll-point.
func (j *Job) takePending(cur []string) (*proposal, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.pending
	if p == nil {
		return nil, 0
	}
	j.pending = nil
	if !slices.Contains(p.target, cur[0]) || sameHostSet(p.target, cur) {
		return nil, 0
	}
	j.epochs++
	return p, j.epochs
}

func sameHostSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, h := range a {
		if !slices.Contains(b, h) {
			return false
		}
	}
	return true
}

// CrashHost models a host failure: every incarnation on the host is killed
// mid-operation and the host is treated as dead by the drain's liveness
// checks. Crashing the pinned root host fails the whole job (the engine has
// no root failover; that is the checkpointing layer's domain). The caller
// is responsible for also failing the host at the transport layer (e.g.
// sim.Network.SetDown) so in-flight payloads fail.
func (j *Job) CrashHost(host string) {
	j.mu.Lock()
	j.dead[host] = true
	recs := append([]*rankRec(nil), j.live[host]...)
	isRoot := len(j.placement) > 0 && j.placement[0] == host
	j.mu.Unlock()
	for _, r := range recs {
		r.kill()
	}
	if isRoot {
		j.fail(fmt.Errorf("malleable: root host %s crashed", host))
	}
}

// Stop cancels the job; Wait returns ErrStopped.
func (j *Job) Stop() { j.fail(ErrStopped) }

// Wait blocks until the job settles and returns the final merged global
// state (from App.Merge over the last world's shards) or the terminal
// error.
func (j *Job) Wait() ([]byte, error) {
	vclock.Await(j.clock, j.done)
	j.wg.Wait(j.clock)
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Done returns a channel closed when the job settles.
func (j *Job) Done() <-chan struct{} { return j.done }

// World returns the current world size.
func (j *Job) World() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.placement)
}

// Placement returns the current placement, rank order.
func (j *Job) Placement() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.placement...)
}

// Resizes returns the committed and aborted resize counts.
func (j *Job) Resizes() (committed, aborted int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.committed, j.aborted
}

func (j *Job) hostDead(host string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dead[host]
}

func (j *Job) emit(ev Event) {
	if j.events == nil {
		return
	}
	var err error
	if ev.Err != "" {
		err = errors.New(ev.Err)
	}
	j.events.Publish(metrics.Event{
		Time:    j.clock.Now(),
		Source:  metrics.SourceMalleable,
		Kind:    ev.Phase,
		Proc:    ev.Job,
		Note:    fmt.Sprintf("world %d->%d", ev.OldWorld, ev.NewWorld),
		Err:     err,
		Payload: ev,
	})
}

func (j *Job) observe(name string, d time.Duration) {
	if j.metrics != nil {
		j.metrics.Histogram(name).Observe(d.Seconds())
	}
}

// fail settles the job with a terminal error (first one wins) and kills
// every live incarnation so nothing stays blocked on a peer that will
// never answer.
func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.finished = true
	j.err = err
	var recs []*rankRec
	for _, l := range j.live {
		recs = append(recs, l...)
	}
	j.mu.Unlock()
	for _, r := range recs {
		r.kill()
	}
	close(j.done)
}

// finishResult settles the job successfully.
func (j *Job) finishResult(result []byte) {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.finished = true
	j.result = result
	j.mu.Unlock()
	close(j.done)
}

// attach binds a new incarnation to its host and registers it with the
// job's liveness bookkeeping.
func (j *Job) attach(env *mpi.Env) (*rankRec, error) {
	hp, err := j.binder.Attach(env.Host, j.name, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("malleable: attach on %s: %w", env.Host, err)
	}
	rec := &rankRec{host: env.Host, env: env, hp: hp}
	j.mu.Lock()
	if j.finished || j.dead[env.Host] {
		j.mu.Unlock()
		hp.Exit()
		rec.kill()
		return nil, mpi.ErrProcExited
	}
	j.live[env.Host] = append(j.live[env.Host], rec)
	j.wg.Add(1)
	j.mu.Unlock()
	return rec, nil
}

func (j *Job) detach(rec *rankRec) {
	j.mu.Lock()
	list := j.live[rec.host]
	for i, r := range list {
		if r == rec {
			j.live[rec.host] = append(list[:i], list[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
	rec.hp.Exit()
	j.wg.Done()
}

// rankExit interprets an incarnation's exit: retirement is clean, errors on
// crashed incarnations are expected collateral (the resize protocol or the
// surviving ranks decide the job's fate), anything else fails the job.
func (j *Job) rankExit(rec *rankRec, err error) {
	if err == nil || errors.Is(err, errRetired) {
		return
	}
	if rec.killed.Load() {
		return
	}
	j.fail(err)
}

// rankMain is the entry point of the initial ranks.
func (j *Job) rankMain(env *mpi.Env) error {
	rec, err := j.attach(env)
	if err != nil {
		// The job is already settled (or the host crashed before launch):
		// die visibly so peers unblock with ErrProcExited.
		env.Kill()
		return nil
	}
	defer j.detach(rec)
	rc := &Rank{
		env: env, rec: rec,
		comm: env.World, rank: env.World.Rank(), world: env.World.Size(),
		placement: j.Placement(),
	}
	var shard []byte
	if rc.rank == 0 {
		global, err := j.app.Fresh()
		if err == nil {
			var shards [][]byte
			if shards, err = j.app.Split(global, rc.world); err == nil {
				values := make([]any, len(shards))
				for i, sh := range shards {
					values[i] = sh
				}
				err = rc.comm.Scatter(values, &shard, 0)
			}
		}
		if err != nil {
			j.rankExit(rec, err)
			return nil
		}
	} else {
		if err := rc.comm.Scatter(nil, &shard, 0); err != nil {
			j.rankExit(rec, err)
			return nil
		}
	}
	j.rankExit(rec, j.runRank(rc, shard, false))
	return nil
}

// runRank is the step loop every incarnation executes: poll for a resize
// at each step boundary, compute the step, and at the end drain the final
// shards to the root for the result merge.
func (j *Job) runRank(rc *Rank, shard []byte, skipFirstPoll bool) error {
	steps := j.app.Steps()
	skip := skipFirstPoll
	for rc.step < steps {
		if !skip {
			newShard, err := j.pollStep(rc, shard)
			if err != nil {
				return err
			}
			shard = newShard
		}
		skip = false
		rc.rec.hp.SetMemory(int64(len(shard)) + 1<<20)
		var err error
		shard, err = j.app.Step(rc, shard)
		if err != nil {
			return err
		}
		rc.step++
	}
	return j.finalDrain(rc, shard)
}

// finalDrain gathers the last world's shards at the root and settles the
// job with the merged global state.
func (j *Job) finalDrain(rc *Rank, shard []byte) error {
	if rc.rank != 0 {
		return rc.comm.Send(shard, 0, tagDrain)
	}
	shards := make([][]byte, rc.world)
	shards[0] = shard
	for r := 1; r < rc.world; r++ {
		var sh []byte
		if err := j.recvLively(rc, rc.comm, r, tagDrain, &sh); err != nil {
			return fmt.Errorf("malleable: final drain from rank %d: %w", r, err)
		}
		shards[r] = sh
	}
	global, err := j.app.Merge(shards)
	if err != nil {
		return err
	}
	j.finishResult(global)
	return nil
}

// drainPoll paces recvLively's mailbox polls, in virtual time.
const drainPoll = time.Millisecond

// recvLively receives from src on comm without risking a wedge: it polls
// the mailbox every drainPoll so a sender that died before sending is
// detected (via the job's dead-host set) instead of blocking forever. A
// message that already arrived is honoured even if the sender has since
// died — that is exactly the drain-first guarantee.
func (j *Job) recvLively(rc *Rank, comm *mpi.Comm, src, tag int, ptr any) error {
	host, err := comm.Host(src)
	if err != nil {
		return err
	}
	for {
		ok, _, err := comm.Iprobe(src, tag)
		if err != nil {
			return err
		}
		if ok {
			_, err := comm.Recv(ptr, src, tag)
			return err
		}
		if rc.rec.killed.Load() {
			return mpi.ErrProcExited
		}
		if j.hostDead(host) {
			return fmt.Errorf("%w: rank %d on %s", errRankLost, src, host)
		}
		j.clock.Sleep(drainPoll)
	}
}
