package metrics

import (
	"math"
	"sort"
	"strconv"
	"sync"
)

// Histogram bucket geometry. Every histogram shares one fixed log-scale
// layout — five buckets per decade from 1 µs to 10,000 s — so histograms
// are mergeable by construction and a sample's bucket depends only on its
// value, never on what was observed before it. Quantiles are reported as
// bucket upper bounds, which makes them deterministic functions of the
// bucket counts: two runs whose samples land in the same buckets render
// byte-identical quantiles even when the raw values jitter.
const (
	bucketsPerDecade = 5
	histDecades      = 10   // 1e-6 s .. 1e4 s
	histMin          = 1e-6 // upper bound of the first bucket, seconds
	numBounds        = bucketsPerDecade*histDecades + 1
)

// histBounds holds the shared bucket upper bounds in seconds:
// bound[i] = 1e-6 * 10^(i/5), with the last regular bucket at 1e4 s.
// Samples above the last bound land in the overflow bucket.
var histBounds = func() [numBounds]float64 {
	var b [numBounds]float64
	for i := range b {
		b[i] = histMin * math.Pow(10, float64(i)/bucketsPerDecade)
	}
	// Pin the decade boundaries exactly so formatting never shows 9.999e2.
	for d := 0; d <= histDecades; d++ {
		b[min(d*bucketsPerDecade, numBounds-1)] = histMin * math.Pow(10, float64(d))
	}
	return b
}()

// bucketOf returns the index of the bucket a value lands in (the overflow
// bucket is numBounds).
func bucketOf(v float64) int {
	if v <= histBounds[0] {
		return 0
	}
	if v > histBounds[numBounds-1] {
		return numBounds
	}
	return sort.SearchFloat64s(histBounds[:], v) // smallest i with bound[i] >= v
}

// Histogram is a fixed-bucket log-scale latency histogram, safe for
// concurrent use. The zero value is NOT ready; create histograms through a
// Registry (or NewHistogram). All methods are nil-receiver safe so
// components can observe unconditionally when metrics are optional.
type Histogram struct {
	mu     sync.Mutex
	counts [numBounds + 1]uint64 // +1: overflow
	total  uint64
	sum    float64
}

// NewHistogram creates a detached histogram (tests; production code uses
// Registry.Histogram so the metric is exported).
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample, in seconds. Negative samples clamp to zero
// (they land in the first bucket); a nil receiver is a no-op.
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	if seconds < 0 || math.IsNaN(seconds) {
		seconds = 0
	}
	i := bucketOf(seconds)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += seconds
	h.mu.Unlock()
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Merge folds another histogram's counts into this one. Buckets are shared
// by construction, so merging is a plain per-bucket addition.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil {
		return
	}
	if o == nil {
		return
	}
	o.mu.Lock()
	counts, total, sum := o.counts, o.total, o.sum
	o.mu.Unlock()
	h.mu.Lock()
	for i, c := range counts {
		h.counts[i] += c
	}
	h.total += total
	h.sum += sum
	h.mu.Unlock()
}

// Quantile returns the q-quantile (0..1] as the upper bound of the bucket
// holding that rank — a deterministic function of the bucket counts. An
// empty histogram returns 0; a quantile landing in the overflow bucket
// returns +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i >= numBounds {
				return math.Inf(1)
			}
			return histBounds[i]
		}
	}
	return math.Inf(1)
}

// FormatSeconds renders a bucket or decade bound compactly, rounded to
// three significant digits: "1ms", "1.58s", "631ms"; 0 renders "0" and
// +Inf renders ">1e4s".
func FormatSeconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.IsInf(v, 1):
		return ">1e4s"
	case v >= 1:
		return fmt3(v) + "s"
	case v >= 1e-3:
		return fmt3(v*1e3) + "ms"
	default:
		return fmt3(v*1e6) + "us"
	}
}

// fmt3 renders a positive display value to three significant digits;
// bucket bounds are irrational (10^(i/5)) and would otherwise print with
// sixteen digits. Unit scaling keeps values below 1000 except the topmost
// seconds decade, which is integral.
func fmt3(x float64) string {
	if x >= 1000 {
		return strconv.FormatFloat(math.Round(x), 'f', -1, 64)
	}
	return strconv.FormatFloat(x, 'g', 3, 64)
}

// BucketCount is one non-empty bucket in a snapshot.
type BucketCount struct {
	LE    float64 `json:"le"` // bucket upper bound in seconds; +Inf encodes as 1e308
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, JSON-friendly.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"` // non-empty buckets only
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count: h.total,
		Sum:   h.sum,
		P50:   h.quantileLocked(0.50),
		P95:   h.quantileLocked(0.95),
		P99:   h.quantileLocked(0.99),
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		le := math.Inf(1)
		if i < numBounds {
			le = histBounds[i]
		} else {
			le = 1e308 // JSON cannot carry +Inf
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: c})
	}
	// Inf sanitation for quantiles too.
	for _, p := range []*float64{&s.P50, &s.P95, &s.P99} {
		if math.IsInf(*p, 1) {
			*p = 1e308
		}
	}
	return s
}

// cumulativeBuckets returns (bound, cumulative count) pairs for every
// regular bucket plus the +Inf bucket — the Prometheus exposition shape.
func (h *Histogram) cumulativeBuckets() ([]float64, []uint64, uint64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds := make([]float64, 0, numBounds)
	cums := make([]uint64, 0, numBounds)
	var cum uint64
	for i := 0; i < numBounds; i++ {
		cum += h.counts[i]
		bounds = append(bounds, histBounds[i])
		cums = append(cums, cum)
	}
	return bounds, cums, h.total, h.sum
}

// Gauge is a single instantaneous value, safe for concurrent use. All
// methods are nil-receiver safe.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// NewGauge creates a detached gauge (tests; production code uses
// Registry.Gauge so the metric is exported).
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}
