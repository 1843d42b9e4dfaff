package registry

import (
	"errors"
	"sync"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

// ReportStatusBatch applies several hosts' soft-state refreshes under one
// lock acquisition — the server side of the statusBatch message. Reports
// from unregistered hosts are skipped and collected into the returned error
// (errors.Join); the registered hosts' reports still apply, and the
// scheduling decision runs for each of them just as it would for single
// reports.
func (r *Registry) ReportStatusBatch(reports []proto.HostStatus) error {
	r.mu.Lock()
	var errs []error
	applied := reports[:0:0]
	for _, rep := range reports {
		if err := r.applyLocked(&recHostStatus{Host: rep.Host, Status: rep.Status, At: r.clock.Now()}); err != nil {
			errs = append(errs, err)
			continue
		}
		applied = append(applied, rep)
	}
	r.mu.Unlock()

	if r.cfg.commands != nil {
		for _, rep := range applied {
			r.decide(rep.Host)
		}
	}
	return errors.Join(errs...)
}

// BatcherConfig configures a Batcher.
type BatcherConfig struct {
	// Clock drives the flush timer; nil selects the real clock.
	Clock vclock.Clock
	// FlushEvery bounds how long a report may sit in the buffer; zero
	// selects 5 seconds (half the monitors' refresh cadence, well inside
	// the 35-second lease).
	FlushEvery time.Duration
	// Metrics, when set, receives the registry/batch_* counters and the
	// batcher's share of monitor/reregisters.
	Metrics *metrics.Registry
}

// Counter names the batcher increments on BatcherConfig.Metrics. A batcher
// re-registering a host after a registry restart stands in for the monitor
// it fronts, so CtrReregisters is the monitors' own counter name.
const (
	CtrBatchFlushes   = "registry/batch_flushes"
	CtrBatchedReports = "registry/batched_reports"
	CtrReregisters    = "monitor/reregisters"
)

// Batcher coalesces per-host status reports into ReportStatusBatch calls.
// It implements the monitor's Reporter shape, so it slots between the
// monitors and the registry: registrations and unregistrations pass through
// (and flush first, preserving order), while status reports buffer — latest
// report per host wins — until maxPending hosts are pending or FlushEvery
// has elapsed. After a registry restart drops the soft state, a flush
// re-registers its hosts from the retained static info and retries, the
// same recovery dance a single monitor performs.
type Batcher struct {
	reg *Registry
	cfg BatcherConfig

	mu        sync.Mutex
	pending   []proto.HostStatus
	index     map[string]int // host -> slot in pending
	statics   map[string]proto.StaticInfo
	lastFlush time.Time

	flushes, batched, reregisters *metrics.Counter // resolved once; nil = uncounted
}

// maxPending is the batch size: a batcher flushes when this many hosts have
// buffered reports.
const maxPending = 64

// NewBatcher creates a Batcher in front of reg.
func NewBatcher(reg *Registry, cfg BatcherConfig) *Batcher {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 5 * time.Second
	}
	return &Batcher{
		reg:       reg,
		cfg:       cfg,
		pending:   make([]proto.HostStatus, 0, maxPending),
		index:     make(map[string]int, maxPending),
		statics:   make(map[string]proto.StaticInfo),
		lastFlush: cfg.Clock.Now(),

		flushes:     cfg.Metrics.Counter(CtrBatchFlushes),
		batched:     cfg.Metrics.Counter(CtrBatchedReports),
		reregisters: cfg.Metrics.Counter(CtrReregisters),
	}
}

// RegisterHost flushes buffered reports, retains the static info for
// post-restart recovery, and registers the host.
func (b *Batcher) RegisterHost(host string, static proto.StaticInfo) error {
	if err := b.Flush(); err != nil {
		return err
	}
	b.mu.Lock()
	b.statics[host] = static
	b.mu.Unlock()
	return b.reg.RegisterHost(host, static)
}

// ReportStatus buffers a host's report, replacing any earlier buffered
// report from the same host, and flushes when the batch is due. The
// steady state — refreshing an already-buffered host, or filling a batch
// whose capacity was preallocated to maxPending — allocates nothing; the
// flush boundary amortises its own costs over the whole batch.
//
//hot:path
func (b *Batcher) ReportStatus(host string, status proto.Status) error {
	b.mu.Lock()
	if i, ok := b.index[host]; ok {
		b.pending[i].Status = status
	} else {
		b.index[host] = len(b.pending)
		b.pending = append(b.pending, proto.HostStatus{Host: host, Status: status}) //lint:allow hotalloc capacity preallocated to maxPending; grows only past the flush threshold
	}
	due := len(b.pending) >= maxPending ||
		b.cfg.Clock.Now().Sub(b.lastFlush) >= b.cfg.FlushEvery
	b.mu.Unlock()
	if !due {
		return nil
	}
	return b.Flush() //lint:allow hotalloc the flush is the amortised batch boundary, one per maxPending reports
}

// UnregisterHost flushes buffered reports, drops the retained static info,
// and unregisters the host.
func (b *Batcher) UnregisterHost(host string) error {
	if err := b.Flush(); err != nil {
		return err
	}
	b.mu.Lock()
	delete(b.statics, host)
	b.mu.Unlock()
	return b.reg.UnregisterHost(host)
}

// Flush delivers the buffered reports now. When the registry rejects some
// hosts as unregistered (it restarted and lost its soft state), those hosts
// are re-registered from the retained static info and their reports
// resent once.
func (b *Batcher) Flush() error {
	b.mu.Lock()
	batch := b.pending
	// The batch slice is handed to the registry (and kept by recover on
	// failure), so the buffer cannot be reused in place: start a fresh one
	// at full capacity — one allocation per flush, amortised over up to
	// maxPending buffered reports.
	b.pending = make([]proto.HostStatus, 0, maxPending)
	b.index = make(map[string]int, maxPending)
	b.lastFlush = b.cfg.Clock.Now()
	b.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	b.flushes.Inc()
	b.batched.Add(int64(len(batch)))
	if err := b.reg.ReportStatusBatch(batch); err != nil {
		return b.recover(batch)
	}
	return nil
}

// recover handles a batch that was partially rejected: per host, re-register
// (when we have its static info) and resend the report individually.
func (b *Batcher) recover(batch []proto.HostStatus) error {
	var errs []error
	for _, rep := range batch {
		if err := b.reg.ReportStatus(rep.Host, rep.Status); err == nil {
			continue
		}
		b.mu.Lock()
		static, ok := b.statics[rep.Host]
		b.mu.Unlock()
		if !ok {
			errs = append(errs, errors.New("batcher: no static info for host "+rep.Host))
			continue
		}
		if err := b.reg.RegisterHost(rep.Host, static); err != nil {
			errs = append(errs, err)
			continue
		}
		b.reregisters.Inc()
		if err := b.reg.ReportStatus(rep.Host, rep.Status); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
