package metrics

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Span histogram names. Each span is one phase of a migration, derived
// from the commander/hpcm event stream and stamped with virtual time:
//
//	poll_wait  commander order accepted → app reaches a poll point (start)
//	init       poll point → destination process spawned and initialised
//	transfer   init → eager state shipped, destination resumed (commit)
//	restore    resume → lazy pages restored, migration fully done
//	total      order (or start, for spontaneous migrations) → restore
const (
	SpanPollWait = "span/poll_wait"
	SpanInit     = "span/init"
	SpanTransfer = "span/transfer"
	SpanRestore  = "span/restore"
	SpanTotal    = "span/total"
)

// Event kinds the span builder consumes. These mirror the commander's
// order event and hpcm's MigrationPhase vocabulary; they are re-declared
// here because hpcm imports metrics, not the other way round.
const (
	kindOrder   = "order"
	kindStart   = "start"
	kindInit    = "init"
	kindResume  = "resume"
	kindRestore = "restore"
	kindAborted = "aborted"
	kindFailed  = "failed"
)

// spanState tracks one in-flight migration between phase events.
type spanState struct {
	orderAt time.Time // zero when the migration had no commander order
	startAt time.Time
	initAt  time.Time
	resume  time.Time
}

// Spans is a Sink that folds commander/hpcm events into per-phase
// migration latency histograms. Orders are matched to migrations by the
// (source host, destination host) route — the commander runs on the source
// host and hpcm's start event carries the same pair — and in-flight state
// is keyed by process label from the start event onward. Durations come
// from the events' virtual timestamps, so two runs with identical event
// schedules produce identical histograms.
type Spans struct {
	mu     sync.Mutex
	orders map[string]time.Time  // route "src→dst" → last order time
	active map[string]*spanState // process label → in-flight migration

	pollWait *Histogram
	init     *Histogram
	transfer *Histogram
	restore  *Histogram
	total    *Histogram
}

// NewSpans builds a span sink writing into reg. The five span histograms
// are created eagerly so they exist (empty) even before any migration.
func NewSpans(reg *Registry) *Spans {
	return &Spans{
		orders:   make(map[string]time.Time),
		active:   make(map[string]*spanState),
		pollWait: reg.Histogram(SpanPollWait),
		init:     reg.Histogram(SpanInit),
		transfer: reg.Histogram(SpanTransfer),
		restore:  reg.Histogram(SpanRestore),
		total:    reg.Histogram(SpanTotal),
	}
}

func routeKey(src, dst string) string { return src + "\x00" + dst }

// Publish consumes one runtime event. Safe for concurrent use; never
// blocks. A nil *Spans is a no-op sink.
func (s *Spans) Publish(e Event) {
	if s == nil {
		return
	}
	switch e.Source {
	case SourceCommander:
		if e.Kind != kindOrder {
			return
		}
		s.mu.Lock()
		s.orders[routeKey(e.Host, e.Dest)] = e.Time
		s.mu.Unlock()
	case SourceHPCM:
		s.hpcmEvent(e)
	default:
		// Registry, faults, jobs and malleable events carry no migration
		// span information.
	}
}

func (s *Spans) hpcmEvent(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case kindStart:
		st := &spanState{startAt: e.Time}
		key := routeKey(e.Host, e.Dest)
		if at, ok := s.orders[key]; ok {
			st.orderAt = at
			delete(s.orders, key)
			s.pollWait.Observe(e.Time.Sub(at).Seconds())
		}
		s.active[e.Proc] = st
	case kindInit:
		if st := s.active[e.Proc]; st != nil {
			st.initAt = e.Time
			s.init.Observe(e.Time.Sub(st.startAt).Seconds())
		}
	case kindResume:
		if st := s.active[e.Proc]; st != nil && !st.initAt.IsZero() {
			st.resume = e.Time
			s.transfer.Observe(e.Time.Sub(st.initAt).Seconds())
		}
	case kindRestore:
		if st := s.active[e.Proc]; st != nil {
			if !st.resume.IsZero() {
				s.restore.Observe(e.Time.Sub(st.resume).Seconds())
			}
			from := st.orderAt
			if from.IsZero() {
				from = st.startAt
			}
			s.total.Observe(e.Time.Sub(from).Seconds())
			delete(s.active, e.Proc)
		}
	case kindAborted, kindFailed:
		delete(s.active, e.Proc)
	default:
		// Order events route through Publish, and intermediate precopy
		// kinds mark no span boundary.
	}
}

// SpanStat is one span histogram's summary: the sample count plus bucket-
// bound quantiles, pre-formatted for experiment output. The quantile
// strings are exact functions of the observed durations' buckets, so on the
// Auto clock, whose event timestamps are the same every run, they are
// byte-identical across runs of one seed.
type SpanStat struct {
	Name  string
	Count uint64
	P50   string
	P95   string
	P99   string
}

// SpanStats summarises every histogram whose name starts with prefix
// (e.g. "span/"), sorted by name.
func (r *Registry) SpanStats(prefix string) []SpanStat {
	if r == nil {
		return nil
	}
	var stats []SpanStat
	for _, name := range r.HistogramNames() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		h := r.Histogram(name)
		stats = append(stats, SpanStat{
			Name:  name,
			Count: h.Count(),
			P50:   FormatSeconds(h.Quantile(0.50)),
			P95:   FormatSeconds(h.Quantile(0.95)),
			P99:   FormatSeconds(h.Quantile(0.99)),
		})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}
