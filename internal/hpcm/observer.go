package hpcm

import (
	"errors"
	"fmt"
	"time"

	"autoresched/internal/metrics"
)

// Migration phases, as carried by MigrationEvent. The chaos engine
// keys host-crash triggers on these, so a "mid-migration crash" happens at
// an exact protocol step rather than an approximate virtual time.
const (
	// PhaseStart: a poll-point picked up a migrate command; state is
	// collected, the destination process does not exist yet.
	PhaseStart = "start"
	// PhaseInit: the initialized process exists on the destination
	// (dynamic process creation complete); state transfer is next.
	PhaseInit = "init"
	// PhasePrecopy: one iterative-precopy round finished shipping its page
	// batch while the source keeps computing. Emitted once per round with
	// Round set; only live migrations produce it.
	PhasePrecopy = "precopy"
	// PhaseFreeze: precopy converged; the source froze at a poll-point and
	// is shipping the residual dirty pages plus execution state. The window
	// from here to PhaseResume is the live migration's downtime.
	PhaseFreeze = "freeze"
	// PhaseResume: the destination resumed execution — the commit point.
	PhaseResume = "resume"
	// PhaseRestore: all lazy state restored; the migration is complete.
	PhaseRestore = "restore"
	// PhaseAborted: the migration failed before the commit point; the
	// source still owns the process.
	PhaseAborted = "aborted"
	// PhaseFailed: the migration failed after the commit point (lazy
	// streaming or the restore handshake); the destination owns the
	// process but may be missing bulk state.
	PhaseFailed = "failed"
)

// MigrationEvent is one step of one migration.
type MigrationEvent struct {
	Proc     string
	From, To string
	Label    string
	Phase    string
	// Round is the precopy round number for PhasePrecopy events (1-based);
	// zero everywhere else.
	Round int
	// Err is set for PhaseAborted and PhaseFailed.
	Err error
}

// MigrationFailure reports a migration that did not complete. Committed
// distinguishes the two very different situations: false means the source
// still owned the process when it failed (the state is intact but the
// incarnation gave up); true means the destination had already taken over
// and its bulk-state restoration broke. Either way the process's last
// checkpoint is the recovery point.
type MigrationFailure struct {
	From, To  string
	Label     string
	Phase     string
	Committed bool
	Err       error
}

// Error implements error.
func (e *MigrationFailure) Error() string {
	state := "aborted"
	if e.Committed {
		state = "failed post-commit"
	}
	return fmt.Sprintf("hpcm: migration %s->%s at %q %s (%s): %v",
		e.From, e.To, e.Label, state, e.Phase, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *MigrationFailure) Unwrap() error { return e.Err }

// Recoverable reports whether a process error is one the runtime can
// recover from by restoring the last checkpoint on another host: a host
// crash (ErrKilled) or a failed migration.
func Recoverable(err error) bool {
	if errors.Is(err, ErrKilled) {
		return true
	}
	var mf *MigrationFailure
	return errors.As(err, &mf)
}

// CheckpointEvent is one checkpoint attempt, published on the unified
// event sink (Source "hpcm", Kind "checkpoint"/"checkpointed") as a typed
// payload. Begin fires before the state is collected and persisted — a
// fault injector keyed on it lands its crash exactly mid-checkpoint — and
// a second event with Begin=false follows a successful save.
type CheckpointEvent struct {
	Proc  string
	Host  string
	Label string
	Begin bool
}

// observe emits a migration phase event, with its typed payload attached,
// on the unified event sink.
func (m *Middleware) observe(ev MigrationEvent) {
	if m.events == nil {
		return
	}
	m.events.Publish(metrics.Event{
		Time:    m.clock.Now(),
		Source:  metrics.SourceHPCM,
		Kind:    ev.Phase,
		Host:    ev.From,
		Dest:    ev.To,
		Proc:    ev.Proc,
		Note:    ev.Label,
		Err:     ev.Err,
		Payload: ev,
	})
}

// span observes one phase span of a migration.
func (m *Middleware) span(name string, d time.Duration) {
	m.metrics.Histogram(name).Observe(d.Seconds())
}

// observeCheckpoint emits a checkpoint event on the unified sink.
func (m *Middleware) observeCheckpoint(ev CheckpointEvent) {
	if m.events == nil {
		return
	}
	kind := "checkpointed"
	if ev.Begin {
		kind = "checkpoint"
	}
	m.events.Publish(metrics.Event{
		Time:    m.clock.Now(),
		Source:  metrics.SourceHPCM,
		Kind:    kind,
		Host:    ev.Host,
		Proc:    ev.Proc,
		Note:    ev.Label,
		Payload: ev,
	})
}
