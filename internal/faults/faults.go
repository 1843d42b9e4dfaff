// Package faults is a deterministic fault-injection engine for the runtime
// system. A Plan schedules faults in virtual time — host crashes, registry
// restarts and crash loops, torn store writes, network partitions, link
// degradation, heartbeat loss, forced and duplicated migrate orders, job
// submissions, elastic resizes, and crashes pinned to exact migration,
// checkpoint and resize protocol phases — and an Injector, the one
// interpreter of every Kind, applies them against a core.System and
// whatever the plan's targets are bound to it as (BindApp, BindSpec,
// BindElastic). Because triggers are either virtual-time offsets or
// protocol events (never wall time), the same plan against the same seeded
// workload produces the same fault schedule and the same robustness
// counters on every run.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind names one fault type.
type Kind string

const (
	// KindCrashHost takes Host down permanently: network down, monitor
	// stopped (unregistering the host), local incarnations killed — those
	// of a bound elastic job included.
	KindCrashHost Kind = "crash-host"
	// KindRestartRegistry drops the registry's soft state; monitors
	// re-register through heartbeats and the runtime resyncs processes.
	KindRestartRegistry Kind = "restart-registry"
	// KindPartition cuts the Host<->Peer link in both directions.
	KindPartition Kind = "partition"
	// KindHeal removes a Host<->Peer partition.
	KindHeal Kind = "heal"
	// KindLinkFactor scales the Host<->Peer bandwidth by Factor
	// (0 < Factor <= 1 degrades; 1 restores).
	KindLinkFactor Kind = "link-factor"
	// KindDropStatus swallows Host's next Count status reports.
	KindDropStatus Kind = "drop-status"
	// KindDupStatus delivers Host's next Count status reports twice.
	KindDupStatus Kind = "dup-status"
	// KindDelayStatus delays Host's next Count status reports by Delay.
	KindDelayStatus Kind = "delay-status"
	// KindMigrate orders the app bound as Proc (BindApp) to migrate to
	// Dest, Count times back to back (Count > 1 models a redelivered order
	// and exercises the commander's dedup).
	KindMigrate Kind = "migrate"
	// KindCrashOnPhase arms a one-shot trap: when a migration of Proc
	// reaches Phase (an hpcm.Phase* constant), crash Target ("source" or
	// "dest") of that migration. For hpcm.PhasePrecopy, Round > 0 narrows
	// the trap to that precopy round (0 fires on the first round seen).
	KindCrashOnPhase Kind = "crash-on-phase"
	// KindResize proposes the placement Hosts to the bound elastic job
	// (BindElastic) — the elastic analogue of KindMigrate.
	KindResize Kind = "resize"
	// KindCrashOnResizePhase arms a one-shot trap on the malleable resize
	// protocol: when a resize reaches Phase (a malleable.Phase* constant),
	// crash Target — "new" crashes the first freshly spawned host of the
	// resize, "victim" the first retiring one. The job must publish its
	// phases to the injector's Sink and be bound (BindElastic) so the crash
	// reaches its ranks.
	KindCrashOnResizePhase Kind = "crash-on-resize-phase"
	// KindCrashLoopRegistry restarts the registry Count times back to back,
	// modelling a crash-looping parent. With a durable store each restart is
	// a crash-consistent bootstrap (snapshot + log-suffix replay) and no
	// monitor re-registration or process resync fires; without one it
	// degenerates to Count soft-state drops.
	KindCrashLoopRegistry Kind = "crash-loop-registry"
	// KindTornWrite chops Count bytes (default 1) off the tail of the
	// system's persist store, modelling a write torn by power loss. The
	// store must implement persist.TailTruncator; the registry's next
	// bootstrap recovers the longest intact record prefix.
	KindTornWrite Kind = "torn-write"
	// KindSubmitJob submits the job spec bound as Proc (BindSpec) to the
	// multi-job queue; Injector.Jobs returns the handles.
	KindSubmitJob Kind = "submit-job"
	// KindKillOnCkpt arms a one-shot trap on the checkpoint protocol: when
	// the process named Proc — a rank of a submitted job, "job.N" — begins
	// writing a checkpoint (the eviction checkpoint of a preemption victim,
	// in the jobs scenarios), put it down mid-write — Target "proc" kills
	// just that incarnation, Target "host" crashes its whole host. Either
	// way the in-progress image is lost.
	KindKillOnCkpt Kind = "kill-on-checkpoint"
)

// Event is one scheduled fault. Only the fields its Kind documents are used.
type Event struct {
	// After is the virtual delay from Injector.Run to this event. Events
	// with equal After apply in slice order.
	After  time.Duration
	Kind   Kind
	Host   string
	Peer   string
	Proc   string
	Dest   string
	Count  int
	Factor float64
	Delay  time.Duration
	Phase  string
	Round  int      // precopy round a crash-on-phase trap waits for (0: any)
	Target string   // "source" | "dest" | "new" | "victim" | "proc" | "host"
	Hosts  []string // resize target placement, rank order
}

// String renders the event compactly (only the fields its kind uses).
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "+%-6s %-16s", e.After, e.Kind)
	if e.Host != "" {
		fmt.Fprintf(&b, " host=%s", e.Host)
	}
	if e.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", e.Peer)
	}
	if e.Proc != "" {
		fmt.Fprintf(&b, " proc=%s", e.Proc)
	}
	if e.Dest != "" {
		fmt.Fprintf(&b, " dest=%s", e.Dest)
	}
	if len(e.Hosts) > 0 {
		fmt.Fprintf(&b, " hosts=%s", strings.Join(e.Hosts, ","))
	}
	if e.Count > 0 {
		fmt.Fprintf(&b, " count=%d", e.Count)
	}
	if e.Factor > 0 {
		fmt.Fprintf(&b, " factor=%g", e.Factor)
	}
	if e.Delay > 0 {
		fmt.Fprintf(&b, " delay=%s", e.Delay)
	}
	if e.Phase != "" {
		fmt.Fprintf(&b, " phase=%s", e.Phase)
	}
	if e.Round > 0 {
		fmt.Fprintf(&b, " round=%d", e.Round)
	}
	if e.Target != "" {
		fmt.Fprintf(&b, " target=%s", e.Target)
	}
	return b.String()
}

// Plan is an ordered fault schedule.
type Plan struct {
	Events []Event
}

// ordered returns the events sorted by After, preserving slice order for
// equal offsets.
func (p Plan) ordered() []Event {
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].After < evs[j].After })
	return evs
}
