package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"autoresched/internal/jobs"
	"autoresched/internal/livemig"
	"autoresched/internal/metrics"
)

// The fleet runner: executes one generated scenario as a discrete-tick
// simulation whose tick is the time, one virtual second each. Admissions come
// from jobs.PlanCycle — the exact planner the live dispatcher executes —
// fault events from the scenario's schedule, and every migration or resize
// is costed through the livemig analytic model (which shares its
// Freeze/Fallback rule with the live driver). Everything is integer or
// pure-arithmetic work over the scenario value, so a Result, its schedule
// digest and its downtime quantiles are byte-identical across runs: the
// property the golden regression leans on.

// Nominal control-path constants matching the experiment cluster: dynamic
// process creation and the per-transfer handshake the live cluster charges.
const (
	spawnLatency = 300 * time.Millisecond
	handshake    = 2 * time.Millisecond
)

// MigrationSpan is one executed (modeled) migration.
type MigrationSpan struct {
	AtSec    int    `json:"at_sec"`
	Job      string `json:"job"`
	From     string `json:"from"`
	To       string `json:"to"`
	Mode     string `json:"mode"` // precopy | fallback | stop-and-copy
	Rounds   int    `json:"rounds,omitempty"`
	Downtime string `json:"downtime"`
	Total    string `json:"total"`
}

// ResizeSpan is one executed (modeled) elastic resize.
type ResizeSpan struct {
	AtSec    int    `json:"at_sec"`
	Job      string `json:"job"`
	OldWorld int    `json:"old_world"`
	NewWorld int    `json:"new_world"`
	Reshape  string `json:"reshape"`
}

// Quantiles is a deterministic histogram summary: counts plus bucket-bound
// quantiles formatted by metrics.FormatSeconds.
type Quantiles struct {
	Count uint64 `json:"count"`
	P50   string `json:"p50"`
	P95   string `json:"p95"`
	P99   string `json:"p99"`
}

// Outcome is the JSON-friendly result of one run: what the rundir's
// outcome.json holds and what the fleet summary aggregates.
type Outcome struct {
	Scenario      string `json:"scenario"`
	Policy        string `json:"policy"`
	JobsTotal     int    `json:"jobs_total"`
	JobsCompleted int    `json:"jobs_completed"`
	// Drained reports whether every job completed before the tick cap.
	Drained     bool `json:"drained"`
	MakespanSec int  `json:"makespan_sec"`
	Admissions  int  `json:"admissions"`
	// Preemptions counts planner evictions by mode (requeue/shrink/migrate).
	Preemptions map[string]int `json:"preemptions,omitempty"`
	// Migrations counts executed migrations by modeled mode.
	Migrations map[string]int `json:"migrations,omitempty"`
	Resizes    int            `json:"resizes,omitempty"`
	// ChurnRequeues and ChurnShrinks count host-crash victims.
	ChurnRequeues int `json:"churn_requeues,omitempty"`
	ChurnShrinks  int `json:"churn_shrinks,omitempty"`
	// Downtime summarises the fleet/downtime_seconds histogram: the freeze
	// windows of every executed migration.
	Downtime Quantiles `json:"downtime"`
	// MigrationTotal summarises end-to-end migration time (precopy
	// included), fleet/migration_seconds.
	MigrationTotal Quantiles `json:"migration_total"`
	// ResizeReshape summarises modeled reshape windows, fleet/resize_seconds.
	ResizeReshape Quantiles `json:"resize_reshape,omitempty"`
}

// Result is one executed scenario: the outcome, the event-schedule digest
// (one line per applied fault, admission, eviction, migration, resize and
// completion, stamped in virtual seconds) and the metrics registry holding
// the downtime/migration/resize histograms.
type Result struct {
	Scenario Scenario
	Outcome  Outcome
	Schedule []string
	Spans    []MigrationSpan
	Resizes  []ResizeSpan
	Metrics  *metrics.Registry
	// FirstAdmitSec is the virtual second each admitted job first started,
	// by job name: queue wait is FirstAdmitSec minus the spec's ArrivalSec.
	FirstAdmitSec map[string]int
}

// Runner executes scenarios. The zero value is ready.
type Runner struct{}

// runJob is one job's simulation state; its placement is the ledger's.
type runJob struct {
	spec JobSpec
	seq  int64

	// progressMs is completed work in rank-milliseconds; the job finishes
	// at gang*workSec*1000.
	progressMs int64
	running    bool
	done       bool
	finish     int
	// pausedUntil stalls progress while a modeled migration or resize
	// freeze window is charged (ticks).
	pausedUntil int
}

func (j *runJob) view() jobs.JobView {
	return jobs.JobView{
		Name:     j.spec.Name,
		Priority: j.spec.Priority,
		Gang:     j.spec.Gang,
		Elastic:  j.spec.Elastic,
		MinWorld: j.spec.MinWorld,
		Seq:      j.seq,
	}
}

func (j *runJob) workMs() int64 { return int64(j.spec.Gang) * int64(j.spec.WorkSec) * 1000 }

// Run executes one scenario to completion (or the tick cap) and returns its
// deterministic result.
func (Runner) Run(s Scenario) Result {
	mreg := metrics.NewRegistry()
	downtimeHist := mreg.Histogram("fleet/downtime_seconds")
	migrHist := mreg.Histogram("fleet/migration_seconds")
	resizeHist := mreg.Histogram("fleet/resize_seconds")

	policy, err := jobs.PolicyByName(s.Policy)
	if err != nil {
		// Space.Check vouches for the policy; an unknown one here is a
		// programming error worth failing loudly on.
		panic(fmt.Sprintf("scenario: %v", err))
	}

	res := Result{
		Scenario:      s,
		Metrics:       mreg,
		FirstAdmitSec: map[string]int{},
		Outcome: Outcome{
			Scenario:    s.Name,
			Policy:      s.Policy,
			JobsTotal:   len(s.Jobs),
			Preemptions: map[string]int{},
			Migrations:  map[string]int{},
		},
	}
	now := 0 // the current tick, in virtual seconds
	digest := func(format string, args ...any) {
		res.Schedule = append(res.Schedule, fmt.Sprintf("t=%04ds ", now)+fmt.Sprintf(format, args...))
	}

	// Fleet state.
	hostNames := make([]string, s.Hosts)
	big := make(map[string]bool, s.Hosts)
	for i := range hostNames {
		hostNames[i] = HostName(i)
		if BigHost(i) {
			big[hostNames[i]] = true
		}
	}
	downUntil := map[string]int{}
	var ledger jobs.Ledger
	// occupy admits hosts to job; a refusal is a bug, fail loudly on it.
	occupy := func(job string, hosts ...string) {
		if err := ledger.Occupy(job, hosts...); err != nil {
			panic(fmt.Sprintf("scenario %s: t=%ds %v", s.Name, now, err))
		}
	}
	linkFactor := 1.0
	linkRestore := -1 // tick the current degrade window ends (-1: none)
	// schedBlackout is the tick the registry's crash-loop recovery ends:
	// admission cycles stall until then (the parent is mid-bootstrap).
	schedBlackout := 0

	// Jobs, in submission order: arrival second, then spec order.
	jobSet := make([]*runJob, len(s.Jobs))
	for i := range s.Jobs {
		jobSet[i] = &runJob{spec: s.Jobs[i]}
	}
	sort.SliceStable(jobSet, func(a, b int) bool { return jobSet[a].spec.ArrivalSec < jobSet[b].spec.ArrivalSec })
	for i, j := range jobSet {
		j.seq = int64(i + 1)
	}
	byName := make(map[string]*runJob, len(jobSet))
	for _, j := range jobSet {
		byName[j.spec.Name] = j
	}
	eligible := func(job, host string) bool {
		if j, ok := byName[job]; ok && j.spec.Big {
			return big[host]
		}
		return true
	}

	// The fault schedule in stable time order.
	fts := append([]FaultSpec(nil), s.Faults...)
	sort.SliceStable(fts, func(a, b int) bool { return fts[a].AtSec < fts[b].AtSec })
	nextFault := 0

	// bandwidth is the current effective migration-link speed.
	bandwidth := func() float64 { return s.Bandwidth() * linkFactor }

	// pause charges a freeze/reshape window against a job: it makes no
	// progress until the window has elapsed (rounded up to whole ticks).
	pause := func(j *runJob, tick int, d time.Duration) {
		ticks := int(math.Ceil(d.Seconds()))
		if ticks < 1 {
			ticks = 1
		}
		if until := tick + ticks; until > j.pausedUntil {
			j.pausedUntil = until
		}
	}

	// modelMigration computes the analytic cost of moving one rank over the
	// current link: mode, precopy rounds, freeze window and end-to-end time.
	modelMigration := func() (mode string, rounds int, downtime, total time.Duration) {
		sc := livemig.Scenario{
			TotalPages:   s.TotalPages(),
			PageBytes:    4096,
			Bandwidth:    bandwidth(),
			SpawnLatency: spawnLatency,
			Handshake:    handshake,
		}
		if s.Migration == MigrateLive {
			sc.DirtyPagesPerSec = float64(s.DirtyPagesPerSec)
			out := livemig.Simulate(sc)
			mode, rounds, downtime = out.Mode, out.Rounds, out.Downtime
			total = time.Duration(out.PrecopySeconds*float64(time.Second)) + downtime
			return
		}
		out := livemig.Simulate(sc)
		mode, downtime = MigrateStopCopy, out.StopCopy
		total = downtime
		return
	}

	// chargeMigration pays for one rank's move from->to: the job stalls for
	// the freeze window while the span, histograms and digest record it.
	// Rewriting the placement is the caller's job — forced migrations pick a
	// free destination, preemption-driven ones follow the planner's Moves.
	chargeMigration := func(j *runJob, tick int, from, to, why string) {
		mode, rounds, downtime, total := modelMigration()
		pause(j, tick, downtime)
		downtimeHist.Observe(downtime.Seconds())
		migrHist.Observe(total.Seconds())
		res.Outcome.Migrations[mode]++
		res.Spans = append(res.Spans, MigrationSpan{
			AtSec: tick, Job: j.spec.Name, From: from, To: to, Mode: mode, Rounds: rounds,
			Downtime: metrics.FormatSeconds(downtime.Seconds()),
			Total:    metrics.FormatSeconds(total.Seconds()),
		})
		digest("migrate job=%s %s->%s mode=%s rounds=%d downtime=%s (%s)",
			j.spec.Name, from, to, mode, rounds, downtime.Round(100*time.Microsecond), why)
	}

	// freeHosts lists, in fleet order, up to n hosts that are up, run no
	// job and fit job.
	freeHosts := func(job string, n int) []string {
		var free []string
		for _, h := range hostNames {
			if len(free) == n {
				break
			}
			if _, down := downUntil[h]; !down && ledger.Owner(h) == "" && eligible(job, h) {
				free = append(free, h)
			}
		}
		return free
	}

	// migrate models a forced migration: one rank of a running job moves to
	// the first free eligible host and pays the mode's freeze window.
	migrate := func(j *runJob, tick int, why string) {
		hosts := ledger.Placement(j.spec.Name)
		if !j.running || len(hosts) == 0 {
			digest("migrate job=%s skipped (%s)", j.spec.Name, "not running")
			return
		}
		to := freeHosts(j.spec.Name, 1)
		if len(to) == 0 {
			digest("migrate job=%s skipped (no free destination)", j.spec.Name)
			return
		}
		from := hosts[len(hosts)-1]
		ledger.Move(j.spec.Name, from, to[0])
		chargeMigration(j, tick, from, to[0], why)
	}

	// resize models an elastic world change: shrink retires the highest
	// ranks, grow re-adopts free hosts; the reshape window moves the
	// repartitioned share of the state.
	resize := func(j *runJob, tick, world int) {
		if !j.running {
			digest("resize job=%s skipped (not running)", j.spec.Name)
			return
		}
		old := len(ledger.Placement(j.spec.Name))
		if world == old {
			digest("resize job=%s skipped (already at world %d)", j.spec.Name, world)
			return
		}
		nw := world
		if world > old {
			free := freeHosts(j.spec.Name, world-old)
			if len(free) == 0 {
				digest("resize job=%s skipped (no free hosts for world %d)", j.spec.Name, world)
				return
			}
			occupy(j.spec.Name, free...)
			nw = old + len(free)
		} else {
			for _, h := range slices.Clone(ledger.Placement(j.spec.Name)[world:]) {
				ledger.Exit(j.spec.Name, h)
			}
		}
		bytesMoved := float64(int64(s.StateMB)<<20) * float64(max(old-nw, nw-old)) / float64(max(old, nw))
		reshape := handshake + time.Duration(bytesMoved/bandwidth()*float64(time.Second))
		if nw > old {
			reshape += spawnLatency
		}
		pause(j, tick, reshape)
		resizeHist.Observe(reshape.Seconds())
		res.Outcome.Resizes++
		res.Resizes = append(res.Resizes, ResizeSpan{
			AtSec: tick, Job: j.spec.Name, OldWorld: old, NewWorld: nw,
			Reshape: metrics.FormatSeconds(reshape.Seconds()),
		})
		digest("resize job=%s %d->%d reshape=%s", j.spec.Name, old, nw, reshape.Round(100*time.Microsecond))
	}

	// The drain cap: horizon plus generous room for the queue to empty. A
	// scenario that has not drained by then reports Drained=false.
	tickCap := s.DurationSec*6 + 600
	remaining := len(jobSet)

	for tick := 0; tick <= tickCap && remaining > 0; tick++ {
		now = tick
		// 1. Revive hosts whose outage ended, restore degraded links.
		revived := []string{}
		for h, until := range downUntil {
			if until <= tick {
				revived = append(revived, h)
			}
		}
		sort.Strings(revived)
		for _, h := range revived {
			delete(downUntil, h)
			digest("revive-host host=%s", h)
		}
		if linkRestore >= 0 && linkRestore <= tick {
			linkFactor, linkRestore = 1.0, -1
			digest("link-restore factor=1")
		}
		// 2. Apply faults scheduled for this tick.
		for nextFault < len(fts) && fts[nextFault].AtSec == tick {
			f := fts[nextFault]
			nextFault++
			switch f.Kind {
			case FaultCrashHost:
				if _, down := downUntil[f.Host]; down {
					digest("crash-host host=%s skipped (already down)", f.Host)
					continue
				}
				downUntil[f.Host] = tick + f.DownSec
				digest("crash-host host=%s down=%ds", f.Host, f.DownSec)
				for _, j := range jobSet {
					hosts := ledger.Placement(j.spec.Name)
					if !j.running || !slices.Contains(hosts, f.Host) {
						continue
					}
					if j.spec.Elastic && len(hosts)-1 >= j.spec.MinWorld {
						ledger.Exit(j.spec.Name, f.Host)
						res.Outcome.ChurnShrinks++
						digest("churn-shrink job=%s world=%d", j.spec.Name, len(hosts)-1)
					} else {
						// The victim checkpointed at the previous tick:
						// requeue with progress intact. A freeze window
						// charged against the lost placement dies with it.
						ledger.Release(j.spec.Name)
						j.running = false
						j.pausedUntil = 0
						res.Outcome.ChurnRequeues++
						digest("churn-requeue job=%s", j.spec.Name)
					}
				}
			case FaultLinkDegrade:
				linkFactor = f.Factor
				linkRestore = tick + f.ForSec
				digest("link-degrade factor=%g for=%ds", f.Factor, f.ForSec)
			case FaultMigrate:
				migrate(byName[f.Job], tick, "forced")
			case FaultResize:
				resize(byName[f.Job], tick, f.World)
			case FaultRegistryCrash:
				// A crash-looping parent is a control-plane blackout, not a
				// fleet outage: each bootstrap replays the change log (one
				// tick per loop) and admissions stall meanwhile. Running jobs
				// keep computing — the durable registry recovers their
				// registrations instead of forcing a re-registration storm.
				if until := tick + f.Loops; until > schedBlackout {
					schedBlackout = until
				}
				digest("registry-crash loops=%d sched-blackout=%ds", f.Loops, f.Loops)
			}
		}
		// 3. Plan one admission cycle over the live fleet (skipped while the
		// registry is mid-recovery from a crash-loop fault, and when no job
		// waits).
		var pending, running []jobs.JobView
		if tick%s.SchedEverySec == 0 && tick >= schedBlackout {
			for _, j := range jobSet {
				switch {
				case j.running:
					running = append(running, j.view())
				case !j.done && j.spec.ArrivalSec <= tick:
					pending = append(pending, j.view())
				}
			}
		}
		if len(pending) > 0 {
			var up []string
			for _, h := range hostNames {
				if _, down := downUntil[h]; !down {
					up = append(up, h)
				}
			}
			for _, adm := range jobs.PlanCycle(policy, pending, ledger.View(up, running, eligible)) {
				for _, ev := range adm.Evictions {
					v := byName[ev.Job]
					res.Outcome.Preemptions[string(ev.Mode)]++
					switch ev.Mode {
					case jobs.EvictRequeue:
						// Any freeze window charged against the lost
						// placement dies with it.
						ledger.Release(ev.Job)
						v.running = false
						v.pausedUntil = 0
						digest("evict job=%s mode=requeue for=%s", ev.Job, adm.Job)
					case jobs.EvictShrink:
						for _, h := range ev.Hosts {
							ledger.Exit(ev.Job, h)
						}
						digest("evict job=%s mode=shrink world=%d for=%s", ev.Job, len(ledger.Placement(ev.Job)), adm.Job)
					case jobs.EvictMigrate:
						// Each contested rank live-migrates to the planner's
						// destination, clear of the admission's hosts, and
						// pays a real freeze window.
						moves := make([]string, 0, len(ev.Moves))
						for h := range ev.Moves {
							moves = append(moves, h)
						}
						sort.Strings(moves)
						digest("evict job=%s mode=migrate moved=%d for=%s", ev.Job, len(moves), adm.Job)
						for _, h := range moves {
							if o := ledger.Owner(ev.Moves[h]); o != "" {
								panic(fmt.Sprintf("scenario %s: t=%ds %s's rank moves onto %s, which is %s's", s.Name, now, ev.Job, ev.Moves[h], o))
							}
							ledger.Move(ev.Job, h, ev.Moves[h])
							chargeMigration(v, tick, h, ev.Moves[h], "preempted")
						}
					}
				}
				j := byName[adm.Job]
				occupy(adm.Job, adm.Hosts...)
				j.running = true
				if _, readmit := res.FirstAdmitSec[adm.Job]; !readmit {
					res.FirstAdmitSec[adm.Job] = tick
				}
				res.Outcome.Admissions++
				digest("admit job=%s gang=%d hosts=%v", adm.Job, j.spec.Gang, adm.Hosts)
			}
		}
		// 4. Advance every running, unpaused job by its live world.
		for _, j := range jobSet {
			if !j.running || tick < j.pausedUntil {
				continue
			}
			j.progressMs += int64(len(ledger.Placement(j.spec.Name))) * 1000
			if j.progressMs >= j.workMs() {
				j.running = false
				j.done = true
				ledger.Release(j.spec.Name)
				j.finish = tick + 1
				remaining--
				digest("complete job=%s", j.spec.Name)
			}
		}
	}

	for _, j := range jobSet {
		if !j.done {
			continue
		}
		res.Outcome.JobsCompleted++
		if j.finish > res.Outcome.MakespanSec {
			res.Outcome.MakespanSec = j.finish
		}
	}
	res.Outcome.Drained = res.Outcome.JobsCompleted == len(jobSet)
	res.Outcome.Downtime = histQuantiles(downtimeHist)
	res.Outcome.MigrationTotal = histQuantiles(migrHist)
	res.Outcome.ResizeReshape = histQuantiles(resizeHist)
	return res
}

// histQuantiles summarises a histogram with deterministic bucket-bound
// quantiles.
func histQuantiles(h *metrics.Histogram) Quantiles {
	return Quantiles{
		Count: h.Count(),
		P50:   metrics.FormatSeconds(h.Quantile(0.50)),
		P95:   metrics.FormatSeconds(h.Quantile(0.95)),
		P99:   metrics.FormatSeconds(h.Quantile(0.99)),
	}
}
