package proto

import (
	"math/rand"
	"sync"
	"time"

	"autoresched/internal/metrics"
)

// Options tunes the robustness behaviour of clients and servers. The zero
// value reproduces the historical behaviour: a 5-second dial timeout, one
// re-dial retry, no call deadline, no backoff, no deduplication.
type Options struct {
	// CallTimeout bounds one send+receive attempt on the wire; zero leaves
	// calls unbounded (a dropped response then blocks forever, so chaos
	// harnesses set this).
	CallTimeout time.Duration
	// Retries is how many times Call re-dials and retries after a transport
	// failure. Zero selects 1 (the historical single re-dial); negative
	// disables retries. Remote handler errors are never retried — the
	// request was already processed.
	Retries int
	// Backoff is the wait before the first retry, doubled each further
	// retry up to 10*Backoff. Zero retries immediately.
	Backoff time.Duration
	// Jitter adds up to this fraction (0..1) of each backoff, drawn from a
	// PRNG seeded with Seed so retry schedules are reproducible.
	Jitter float64
	// Seed feeds the jitter PRNG.
	Seed int64
	// DedupWindow (servers) is how many recent sequence numbers per client
	// the server remembers responses for, making retried deliveries
	// idempotent: a replayed (From, Seq) gets the cached response instead
	// of re-invoking the handler. Zero disables (deduplication assumes
	// client names are unique, which not every deployment guarantees).
	DedupWindow int
	// Metrics, when set, receives the proto/* control-plane counters and
	// the proto/call_seconds histogram: the wall-clock duration of each
	// Call, retries and backoff included.
	Metrics *metrics.Registry
}

func (o Options) retries() int {
	switch {
	case o.Retries < 0:
		return 0
	case o.Retries == 0:
		return 1
	default:
		return o.Retries
	}
}

func (o Options) dedupWindow() int {
	if o.DedupWindow < 0 {
		return 0
	}
	return o.DedupWindow
}

// backoffFor returns the wait before retry attempt (1-based), including
// seeded jitter. rng may be nil when Jitter is 0.
func (o Options) backoffFor(attempt int, rng *rand.Rand) time.Duration {
	if o.Backoff <= 0 {
		return 0
	}
	d := min(o.Backoff<<(attempt-1), 10*o.Backoff)
	if o.Jitter > 0 && rng != nil {
		d += time.Duration(o.Jitter * rng.Float64() * float64(d))
	}
	return d
}

// MetricCallSeconds is the wall-clock duration of one client Call (an
// approximate metric — retries, backoff and the wire round trip included).
const MetricCallSeconds = "proto/call_seconds"

// Counter names the proto layer increments on Options.Metrics: client
// retries and re-dials, and server-side idempotent redeliveries.
const (
	CtrRetries    = "proto/call_retries"
	CtrReconnects = "proto/reconnects"
	CtrDeduped    = "proto/msgs_deduped"
)

// dedupCache remembers the last responses per (client, seq) so redelivered
// requests are answered idempotently.
type dedupCache struct {
	window int

	mu      sync.Mutex
	clients map[string]*clientWindow
}

type clientWindow struct {
	resps map[uint64]*Message
	order []uint64
}

func newDedupCache(window int) *dedupCache {
	if window <= 0 {
		return nil
	}
	return &dedupCache{window: window, clients: make(map[string]*clientWindow)}
}

// lookup returns the cached response for a (from, seq), if any. Seq 0 is
// never cached (unset field).
func (d *dedupCache) lookup(from string, seq uint64) (*Message, bool) {
	if d == nil || from == "" || seq == 0 {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cw, ok := d.clients[from]
	if !ok {
		return nil, false
	}
	resp, ok := cw.resps[seq]
	return resp, ok
}

// store records a response for replay.
func (d *dedupCache) store(from string, seq uint64, resp *Message) {
	if d == nil || from == "" || seq == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cw, ok := d.clients[from]
	if !ok {
		cw = &clientWindow{resps: make(map[uint64]*Message)}
		d.clients[from] = cw
	}
	if _, exists := cw.resps[seq]; !exists {
		cw.order = append(cw.order, seq)
	}
	cw.resps[seq] = resp
	for len(cw.order) > d.window {
		delete(cw.resps, cw.order[0])
		cw.order = cw.order[1:]
	}
}
