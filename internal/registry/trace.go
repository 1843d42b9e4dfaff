package registry

import "autoresched/internal/metrics"

// EventKind classifies a scheduling-decision event; its values are the Kind
// strings of the registry's events on the unified sink (Source "registry").
type EventKind string

// The decision trace vocabulary.
const (
	// EventWarmup: a host qualified for offloading but the damping window
	// has not elapsed yet.
	EventWarmup EventKind = "warmup"
	// EventCooldown: a qualified host was skipped because an order was
	// issued recently.
	EventCooldown EventKind = "cooldown"
	// EventNoProcess: a qualified host has no migration-enabled process.
	EventNoProcess EventKind = "no-process"
	// EventDeclined: no destination fit the selected process.
	EventDeclined EventKind = "declined"
	// EventOrdered: a migrate order was dispatched.
	EventOrdered EventKind = "ordered"
	// EventOrderFailed: the commander rejected the order.
	EventOrderFailed EventKind = "order-failed"
	// EventRestart: the registry dropped its soft state (simulated crash +
	// restart) — or, with a durable store configured, recovered it by
	// crash-consistent bootstrap (the RestartEvent payload tells which).
	EventRestart EventKind = "restart"
	// EventPromoted: a warm standby fenced the old primary's epoch and
	// took over as the writing registry.
	EventPromoted EventKind = "promoted"
)

// RestartEvent is the typed payload published on the unified sink for a
// registry restart, so metrics.On[RestartEvent] subscribers — the runtime's
// process resync, the standby promoter, test harnesses — can distinguish a
// crash-consistent recovery (Recovered, with the restored state's shape)
// from a soft-state drop without parsing trace notes.
type RestartEvent struct {
	// Recovered reports a store-backed bootstrap; false is the classic
	// soft-state drop where everything must re-register.
	Recovered bool
	// Seq is the change-log sequence the recovered state corresponds to
	// (zero without a store).
	Seq uint64
	// Hosts and Procs count the restored protocol state.
	Hosts int
	Procs int
}

// trace publishes one decision event on the unified sink (callers must
// not hold r.mu).
func (r *Registry) trace(kind EventKind, host string, pid int, dest, note string) {
	r.traceWith(nil, kind, host, pid, dest, note)
}

// traceWith publishes a decision event carrying a typed payload, which
// metrics.On[T] subscribers pick up (callers must not hold r.mu).
func (r *Registry) traceWith(payload any, kind EventKind, host string, pid int, dest, note string) {
	if r.cfg.events == nil {
		return
	}
	r.cfg.events.Publish(metrics.Event{
		Time:    r.clock.Now(),
		Source:  metrics.SourceRegistry,
		Kind:    string(kind),
		Host:    host,
		Dest:    dest,
		PID:     pid,
		Note:    note,
		Payload: payload,
	})
}
