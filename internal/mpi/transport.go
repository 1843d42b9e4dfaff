package mpi

import (
	"time"

	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// Transport charges the time a payload takes to move between hosts. The
// message itself travels in process memory; the transport decides how long
// that is allowed to take (and whether it succeeds).
type Transport interface {
	Send(fromHost, toHost string, bytes int64) error
}

// Instant is a free transport: messages move in zero time. Useful for pure
// algorithm tests.
type Instant struct{}

// Send implements Transport.
func (Instant) Send(_, _ string, _ int64) error { return nil }

// SimTransport charges transfers to a simulated network, sharing bandwidth
// with whatever else the cluster is doing — this is what makes migration
// into a communication-busy host measurably slower (Table 2).
type SimTransport struct {
	Net *sim.Network
}

// Send implements Transport by performing a blocking simulated transfer.
func (t SimTransport) Send(fromHost, toHost string, bytes int64) error {
	return t.Net.Transfer(fromHost, toHost, bytes)
}

// ModelTransport charges a fixed latency plus bytes/bandwidth to the clock,
// without contention. Bandwidth is in bytes per second.
type ModelTransport struct {
	Clock     vclock.Clock
	Latency   time.Duration
	Bandwidth float64
}

// Send implements Transport.
func (t ModelTransport) Send(fromHost, toHost string, bytes int64) error {
	if fromHost == toHost {
		return nil
	}
	d := t.Latency
	if t.Bandwidth > 0 {
		d += time.Duration(float64(bytes) / t.Bandwidth * float64(time.Second))
	}
	if d > 0 && t.Clock != nil {
		t.Clock.Sleep(d)
	}
	return nil
}
