// The resize protocol. One resize attempt runs entirely between two
// computation steps:
//
//	propose   scheduler hands the job a target placement (async, any time)
//	quiesce   every rank reaches the poll-point; rank 0 announces the plan
//	drain     all shards gathered to rank 0 — state is now crash-safe
//	reshape   victims become expendable; expansions spawn + merge new ranks
//	spawn     new ranks are up, hold no state yet (loss here aborts)
//	commit    root redistributes shards over the new world; members form
//	          the new world communicator (communication-free CreateGroup);
//	          victims retire, survivors and children resume
//
// A spawn failure (typed mpi.HostFailedError) or the loss of a fresh rank
// before its state lands aborts the resize: every old rank resumes on the
// old world and the job keeps computing as if nothing happened. A victim
// lost after the drain does not matter — its shard is already at the root.
// Only losing a rank before its drain completes (or the root itself) fails
// the job.
package malleable

import (
	"errors"
	"fmt"
	"slices"

	"autoresched/internal/mpi"
)

// Protocol tags, in the reserved band above any tag the App may use for
// neighbour exchange (user steps stay below 1<<20).
const (
	// tagDrain carries a rank's shard to the root (quiesce drain and
	// final-result drain).
	tagDrain = 1<<20 + iota
	// tagState carries a member's new shard plus the resumed step from the
	// root over the merged communicator.
	tagState
	// tagVerdict carries the commit/abort decision from the root over the
	// merged communicator.
	tagVerdict
)

// announce is broadcast from rank 0 at every poll-point: either "no resize,
// keep stepping" or the full plan for this epoch.
type announce struct {
	Resize bool
	Epoch  int
	Target []string
}

// state is the root's per-member resize payload: the shard the member
// resumes with and the step to resume at.
type state struct {
	Step  int
	Shard []byte
}

// verdict is the root's final word on one resize attempt.
type verdict struct {
	Commit bool
}

// plan is the pure decomposition of one resize: who survives, who retires,
// who joins, and the placement afterwards. Survivors keep their relative
// rank order; new hosts append in target order — so the new rank of old
// rank r is its index among the survivors, and children follow.
type plan struct {
	epoch    int
	target   []string
	cur      []string
	survivor []int    // old ranks that continue, ascending
	victim   []int    // old ranks that retire, ascending
	added    []string // hosts joining, target order
	newPlace []string // placement after the resize, new-rank order
}

func makePlan(epoch int, cur, target []string) plan {
	p := plan{
		epoch:  epoch,
		target: append([]string(nil), target...),
		cur:    append([]string(nil), cur...),
	}
	for r, host := range cur {
		if slices.Contains(target, host) {
			p.survivor = append(p.survivor, r)
			p.newPlace = append(p.newPlace, host)
		} else {
			p.victim = append(p.victim, r)
		}
	}
	for _, host := range target {
		if !slices.Contains(cur, host) {
			p.added = append(p.added, host)
			p.newPlace = append(p.newPlace, host)
		}
	}
	return p
}

// newRankOf returns the post-resize rank of old rank r, or -1 for victims.
func (p *plan) newRankOf(r int) int {
	for i, s := range p.survivor {
		if s == r {
			return i
		}
	}
	return -1
}

// memberBigRanks lists the members of the new world by their ranks in the
// merged (old ∪ spawned) communicator: survivors keep their old-world
// ranks (parents sort first in Merge), children follow at oldWorld+i.
func (p *plan) memberBigRanks() []int {
	ranks := append([]int(nil), p.survivor...)
	for i := range p.added {
		ranks = append(ranks, len(p.cur)+i)
	}
	return ranks
}

// pollStep is the poll-point every rank passes between steps: rank 0
// decides whether a resize is pending and broadcasts the verdict; on a
// resize all ranks run the reshape. Returns the shard to continue with
// (rewriting rc on a committed resize) or errRetired for victims.
func (j *Job) pollStep(rc *Rank, shard []byte) ([]byte, error) {
	var ann announce
	if rc.rank == 0 {
		if p, epoch := j.takePending(rc.placement); p != nil {
			ann = announce{Resize: true, Epoch: epoch, Target: p.target}
			j.observe(MetricQuiesceSeconds, j.clock.Now().Sub(p.at))
			defer j.timeResize(p, epoch)()
		}
	}
	if err := rc.comm.Bcast(&ann, 0); err != nil {
		return nil, err
	}
	if !ann.Resize {
		return shard, nil
	}
	pl := makePlan(ann.Epoch, rc.placement, ann.Target)
	if rc.rank == 0 {
		j.emit(Event{
			Job: j.name, Phase: PhaseQuiesce, Epoch: pl.epoch,
			OldWorld: len(pl.cur), NewWorld: len(pl.target),
			Added: pl.added, Removed: victimHosts(&pl),
		})
	}
	return j.reshape(rc, &pl, shard)
}

// timeResize returns the deferred end-of-resize recorder for rank 0: it
// observes the full-resize and reshape histograms only if the attempt
// committed (j.epochs bookkeeping identifies commits via counters).
func (j *Job) timeResize(p *proposal, epoch int) func() {
	quiesced := j.clock.Now()
	return func() {
		j.mu.Lock()
		committed := j.lastCommitEpoch == epoch
		j.mu.Unlock()
		if committed {
			j.observe(MetricReshapeSeconds, j.clock.Now().Sub(quiesced))
			j.observe(MetricResizeSeconds, j.clock.Now().Sub(p.at))
		}
	}
}

func victimHosts(pl *plan) []string {
	var hosts []string
	for _, r := range pl.victim {
		hosts = append(hosts, pl.cur[r])
	}
	return hosts
}

// reshape executes one resize attempt on every old rank. The root drives;
// non-root ranks first drain, then follow the root's messages.
func (j *Job) reshape(rc *Rank, pl *plan, shard []byte) ([]byte, error) {
	if rc.rank == 0 {
		return j.rootReshape(rc, pl, shard)
	}
	// Drain: ship the shard to the root, then await the outcome.
	if err := rc.comm.Send(shard, 0, tagDrain); err != nil {
		return nil, err
	}
	return j.memberCommit(rc, pl, rc.comm, shard, rc.rank)
}

// rootReshape is rank 0's side: drain, spawn, redistribute, decide.
func (j *Job) rootReshape(rc *Rank, pl *plan, shard []byte) ([]byte, error) {
	oldW := len(pl.cur)
	// Drain every rank's shard. A rank that dies before its shard arrives
	// is unrecoverable state loss: the job fails (never wedges — recvLively
	// watches the job's dead-host set).
	shards := make([][]byte, oldW)
	shards[0] = shard
	for r := 1; r < oldW; r++ {
		var sh []byte
		if err := j.recvLively(rc, rc.comm, r, tagDrain, &sh); err != nil {
			return nil, fmt.Errorf("malleable: drain epoch %d from rank %d: %w", pl.epoch, r, err)
		}
		shards[r] = sh
	}
	// State is safe. Victims are expendable from here on.
	j.emit(Event{
		Job: j.name, Phase: PhaseReshape, Epoch: pl.epoch,
		OldWorld: oldW, NewWorld: len(pl.target),
		Added: pl.added, Removed: victimHosts(pl),
	})

	bigComm := rc.comm
	if len(pl.added) > 0 {
		var err error
		bigComm, err = rc.env.SpawnMerge(rc.comm, pl.added, j.childMain(pl, rc.step))
		if err != nil {
			var hf *mpi.HostFailedError
			if errors.As(err, &hf) {
				// A target host failed mid-spawn: clean abort, the old
				// world resumes untouched.
				return shard, j.rootAbort(rc, pl, rc.comm, oldW, hf.Error())
			}
			return nil, fmt.Errorf("malleable: spawn epoch %d: %w", pl.epoch, err)
		}
		j.emit(Event{
			Job: j.name, Phase: PhaseSpawn, Epoch: pl.epoch,
			OldWorld: oldW, NewWorld: len(pl.target), Added: pl.added,
		})
	}

	// Repartition for the new world.
	newShards, err := j.repartition(shards, len(pl.target))
	if err != nil {
		// Application-level failure: abort to the old world; the job keeps
		// running at the old size (the shards are untouched).
		if aerr := j.rootAbort(rc, pl, bigComm, oldW, err.Error()); aerr != nil {
			return nil, aerr
		}
		return shard, nil
	}

	// A fresh host that died in the spawn window may not have failed the
	// sends yet (eager buffering): check the dead-host set explicitly so the
	// abort is deterministic, not a race against delivery.
	for _, h := range pl.added {
		if j.hostDead(h) {
			return shard, j.rootAbort(rc, pl, bigComm, oldW, fmt.Sprintf("spawned host %s died before commit", h))
		}
	}
	// Push each member its new shard. A send failure here (fresh rank's
	// host crashed in the spawn window, ErrHostDown / ErrProcExited)
	// aborts: no state has been destroyed yet.
	ranks := pl.memberBigRanks()
	for i, big := range ranks {
		if big == 0 {
			continue
		}
		if err := bigComm.Send(state{Step: rc.step, Shard: newShards[i]}, big, tagState); err != nil {
			return shard, j.rootAbort(rc, pl, bigComm, oldW, fmt.Sprintf("state push to merged rank %d: %v", big, err))
		}
	}
	// Commit. Verdict failures to individual members are ignored: a member
	// that cannot hear the verdict is dead, and a dead member resolves
	// itself — a dead victim was leaving anyway, and a dead survivor or
	// child fails the new world's next exchange, which fails the job.
	for big := 1; big < bigComm.Size(); big++ {
		_ = bigComm.Send(verdict{Commit: true}, big, tagVerdict)
	}
	j.commitJobState(pl)
	newComm, err := bigComm.CreateGroup(pl.memberBigRanks(), pl.epoch)
	if err != nil {
		return nil, fmt.Errorf("malleable: commit epoch %d: %w", pl.epoch, err)
	}
	rc.adopt(newComm, pl)
	j.emit(Event{
		Job: j.name, Phase: PhaseResume, Epoch: pl.epoch,
		OldWorld: oldW, NewWorld: len(pl.target),
		Added: pl.added, Removed: victimHosts(pl),
	})
	return newShards[0], nil
}

// repartition merges the old shards and re-splits for the new world size.
func (j *Job) repartition(shards [][]byte, newWorld int) ([][]byte, error) {
	global, err := j.app.Merge(shards)
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	newShards, err := j.app.Split(global, newWorld)
	if err != nil {
		return nil, fmt.Errorf("split to %d: %w", newWorld, err)
	}
	if len(newShards) != newWorld {
		return nil, fmt.Errorf("split returned %d shards for world %d", len(newShards), newWorld)
	}
	return newShards, nil
}

// rootAbort distributes an abort verdict over comm (the widest
// communicator every still-relevant member listens on) and records the
// abort. Send failures are ignored — dead members don't need the verdict.
func (j *Job) rootAbort(rc *Rank, pl *plan, comm *mpi.Comm, oldW int, reason string) error {
	for big := 1; big < comm.Size(); big++ {
		_ = comm.Send(verdict{Commit: false}, big, tagVerdict)
	}
	j.mu.Lock()
	j.aborted++
	j.mu.Unlock()
	j.metrics.Counter(CtrResizeAborted).Inc()
	j.emit(Event{
		Job: j.name, Phase: PhaseAbort, Epoch: pl.epoch,
		OldWorld: oldW, NewWorld: len(pl.target),
		Added: pl.added, Removed: victimHosts(pl), Err: reason,
	})
	return nil
}

// commitJobState flips the job's placement/counters to the new world.
func (j *Job) commitJobState(pl *plan) {
	j.mu.Lock()
	j.placement = append([]string(nil), pl.newPlace...)
	j.committed++
	j.lastCommitEpoch = pl.epoch
	j.mu.Unlock()
	j.metrics.Counter(CtrResizeCommitted).Inc()
	j.metrics.Counter(CtrRanksSpawned).Add(int64(len(pl.added)))
	j.metrics.Counter(CtrRanksRetired).Add(int64(len(pl.victim)))
}

// memberCommit is the non-root side after the drain: survivors and victims
// wait on the communicator the root talks to them on. For an expansion
// they must first join the SpawnMerge collective; the announce's plan
// tells them whether one is coming.
func (j *Job) memberCommit(rc *Rank, pl *plan, oldComm *mpi.Comm, oldShard []byte, oldRank int) ([]byte, error) {
	bigComm := oldComm
	if len(pl.added) > 0 {
		var err error
		bigComm, err = rc.env.SpawnMerge(oldComm, pl.added, nil)
		if err != nil {
			var hf *mpi.HostFailedError
			if errors.As(err, &hf) {
				// Spawn aborted cluster-wide: resume the old world. The
				// typed error doubles as the abort verdict, so the root
				// sends none after a spawn failure.
				return oldShard, nil
			}
			return nil, fmt.Errorf("malleable: spawn epoch %d: %w", pl.epoch, err)
		}
	}
	// Victims receive only the verdict (the root pushes state to new-world
	// members only); survivors must see their state before a commit.
	newRank := pl.newRankOf(oldRank)
	st, vd, err := j.awaitOutcome(rc, bigComm, newRank >= 0)
	if err != nil {
		return nil, err
	}
	if !vd.Commit {
		return oldShard, nil
	}
	if newRank < 0 {
		return nil, errRetired
	}
	newComm, err := bigComm.CreateGroup(pl.memberBigRanks(), pl.epoch)
	if err != nil {
		return nil, fmt.Errorf("malleable: commit epoch %d: %w", pl.epoch, err)
	}
	rc.adopt(newComm, pl)
	return st.Shard, nil
}

// awaitOutcome receives the root's state (wantState: members of the new
// world only) and verdict messages over the merged communicator, in either
// arrival order. Per-pair FIFO guarantees a commit verdict never overtakes
// its state message.
func (j *Job) awaitOutcome(rc *Rank, comm *mpi.Comm, wantState bool) (state, verdict, error) {
	var (
		st     state
		haveSt bool
		vd     verdict
		haveVd bool
	)
	for !haveVd {
		stat, err := comm.Probe(0, mpi.AnyTag)
		if err != nil {
			return st, vd, err
		}
		switch stat.Tag {
		case tagState:
			if _, err := comm.Recv(&st, 0, tagState); err != nil {
				return st, vd, err
			}
			haveSt = true
		case tagVerdict:
			if _, err := comm.Recv(&vd, 0, tagVerdict); err != nil {
				return st, vd, err
			}
			haveVd = true
		default:
			return st, vd, fmt.Errorf("malleable: unexpected tag %d from root during resize", stat.Tag)
		}
	}
	if vd.Commit && wantState && !haveSt {
		return st, vd, errors.New("malleable: commit verdict without state")
	}
	return st, vd, nil
}

// adopt rewrites a Rank for the committed new world.
func (rc *Rank) adopt(newComm *mpi.Comm, pl *plan) {
	rc.comm = newComm
	rc.rank = newComm.Rank()
	rc.world = newComm.Size()
	rc.placement = append([]string(nil), pl.newPlace...)
}

// childMain builds the Main a freshly spawned rank runs: merge into the
// parents' world, bind to the host, receive state + verdict, and on commit
// join the new world and enter the step loop (skipping the first poll —
// the parents' collSeq on the new communicator starts aligned only after
// everyone passes the same number of collectives, and the child joins
// between two polls).
func (j *Job) childMain(pl *plan, step int) mpi.Main {
	return func(env *mpi.Env) error {
		bigComm, err := env.Parent.Merge(true)
		if err != nil {
			return err
		}
		rec, err := j.attach(env)
		if err != nil {
			// Host crashed between HostCheck and launch, or the job is
			// settling: die visibly so the root's state push fails and the
			// resize aborts.
			env.Kill()
			return nil
		}
		defer j.detach(rec)
		rc := &Rank{env: env, rec: rec}
		st, vd, err := j.awaitOutcome(rc, bigComm, true)
		if err != nil || !vd.Commit {
			// Abort (or the root died): a child with no state just exits.
			return nil
		}
		newComm, err := bigComm.CreateGroup(pl.memberBigRanks(), pl.epoch)
		if err != nil {
			return err
		}
		rc.adopt(newComm, pl)
		rc.step = st.Step
		j.rankExit(rec, j.runRank(rc, st.Shard, true))
		return nil
	}
}
