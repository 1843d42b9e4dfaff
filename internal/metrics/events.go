package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// The event stream is the runtime's one observer surface. Every layer that
// has something to announce — registry decisions and restarts, commander
// orders, migration and checkpoint phases, resize phases, job transitions,
// applied faults and fired traps — publishes an Event on a Sink, wired once
// through core.Options.Events (or the layer's own Events option when it
// runs standalone). There are no per-subsystem callback types: a consumer
// that wants a source's typed struct subscribes with On[T], several
// consumers compose with Multi, and tests buffer with a Ring.
//
// Delivery is synchronous on the emitting goroutine and Multi preserves
// sink order, so a subscriber may act at an exact protocol step — the
// fault injector's crash-on-phase trap depends on it — and must in turn be
// concurrency-safe and quick.

// Source names the subsystem an event originated from.
const (
	SourceRegistry  = "registry"
	SourceHPCM      = "hpcm"
	SourceCommander = "commander"
	SourceMalleable = "malleable"
	SourceJobs      = "jobs"
)

// Event is one normalised runtime event. Source and Kind identify it;
// the remaining fields are set when the source vocabulary carries them.
// Payload, when non-nil, carries the source's typed event struct
// (hpcm.MigrationEvent, hpcm.CheckpointEvent, malleable.Event,
// registry.RestartEvent) for consumers needing more than the normalised
// fields; see On. Job lifecycle events carry none.
type Event struct {
	Time    time.Time
	Source  string // one of the Source* constants
	Kind    string // the source's own kind vocabulary (e.g. "ordered", "resume")
	Host    string // the host the event concerns (migration source, fault target)
	Dest    string // destination host, for placement/migration events
	Proc    string // process name, for process-level events
	PID     int    // pid, for process-level events
	Note    string // free-form detail
	Err     error  // set for failure events
	Payload any    // the source's typed event struct, when it has one
}

// String renders the event for logs.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s/%s", e.Time.Format("15:04:05"), e.Source, e.Kind)
	if e.Host != "" {
		fmt.Fprintf(&b, " host=%s", e.Host)
	}
	if e.Dest != "" {
		fmt.Fprintf(&b, " dest=%s", e.Dest)
	}
	if e.Proc != "" {
		fmt.Fprintf(&b, " proc=%s", e.Proc)
	}
	if e.PID != 0 {
		fmt.Fprintf(&b, " pid=%d", e.PID)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, " error=%v", e.Err)
	}
	return b.String()
}

// Sink receives events. Publish is called synchronously from the emitting
// goroutine (registry decisions, migrating processes, the fault scheduler),
// so implementations must be safe for concurrent use and must not block
// indefinitely.
type Sink interface {
	Publish(Event)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(Event)

// Publish implements Sink.
func (f SinkFunc) Publish(e Event) { f(e) }

// Multi fans one event out to several sinks, in order. Nil sinks are
// skipped, so callers can pass optional sinks unconditionally.
func Multi(sinks ...Sink) Sink {
	out := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	return multi(out)
}

type multi []Sink

func (m multi) Publish(e Event) {
	for _, s := range m {
		s.Publish(e)
	}
}

// On registers a typed observer as a Sink: fn runs for every event whose
// Payload is a T, and all other events pass through silently. It is the
// one registration pattern for typed consumers — metrics.On(func(ev
// hpcm.MigrationEvent) {...}), metrics.On(func(ev malleable.Event) {...}) —
// in place of a callback type per subsystem. fn runs synchronously on the
// emitting goroutine and must follow the Sink contract (concurrency-safe,
// non-blocking).
func On[T any](fn func(T)) Sink {
	return SinkFunc(func(e Event) {
		if p, ok := e.Payload.(T); ok {
			fn(p)
		}
	})
}

// Ring is a bounded in-memory sink, the drop-in observer for tests and
// experiments: it keeps the most recent Cap events. A nil *Ring is a no-op
// sink that holds nothing.
type Ring struct {
	// Cap bounds the buffer; zero selects 1024.
	Cap int

	mu     sync.Mutex
	events []Event
}

// Publish implements Sink.
func (r *Ring) Publish(e Event) {
	if r == nil {
		return
	}
	max := r.Cap
	if max <= 0 {
		max = 1024
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	if len(r.events) > max {
		r.events = r.events[len(r.events)-max:]
	}
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Count returns how many events are currently buffered.
func (r *Ring) Count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// CountBy returns how many buffered events match the source (and kind, when
// non-empty).
func (r *Ring) CountBy(source, kind string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Source == source && (kind == "" || e.Kind == kind) {
			n++
		}
	}
	return n
}
