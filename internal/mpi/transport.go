package mpi

import "autoresched/internal/sim"

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
