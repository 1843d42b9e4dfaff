package proto

import "autoresched/internal/metrics"

// Options carries a client's instruments. Its behaviour is fixed: a
// 5-second dial timeout, no call deadline, and one re-dial when a call
// fails on the wire.
type Options struct {
	// Metrics, when set, receives the client's proto/* counters and the
	// proto/call_seconds histogram: the wall-clock duration of each Call,
	// its re-dial included.
	Metrics *metrics.Registry
}

// MetricCallSeconds is the wall-clock duration of one client Call (an
// approximate metric — the re-dial and the wire round trip included).
const MetricCallSeconds = "proto/call_seconds"

// Counter names the client increments on Options.Metrics: a call retried
// after a transport failure, and the re-dial that preceded the retry.
const (
	CtrRetries    = "proto/call_retries"
	CtrReconnects = "proto/reconnects"
)
