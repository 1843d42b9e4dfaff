package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is the single home of a runtime's metrics: counters, gauges and
// histograms, created on first use and rendered in sorted name order so
// both exposition formats are deterministic. A nil *Registry is usable —
// every getter returns a nil metric whose methods no-op — so components
// take an optional registry and instrument unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it (at zero) on first use.
// Hot paths resolve their counters once at construction and keep the
// pointer; cold paths may look up per call.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedNames(r.hists)
}

// instruments copies the three name->instrument maps under the lock, so
// readers can walk them (and call into the instruments' own locks)
// without holding the registry's.
func (r *Registry) instruments() (map[string]*Counter, map[string]*Gauge, map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	return counters, gauges, hists
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Merge folds another registry into this one: counters add, histograms
// add bucket-wise, gauges take the other's value. Experiments use this to
// accumulate per-scenario registries into one run-wide snapshot.
func (r *Registry) Merge(o *Registry) {
	if r == nil {
		return
	}
	if o == nil {
		return
	}
	counters, gauges, hists := o.instruments()
	for name, c := range counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range gauges {
		r.Gauge(name).Set(g.Value())
	}
	for name, h := range hists {
		r.Histogram(name).Merge(h)
	}
}

// Snapshot is a point-in-time JSON-friendly copy of every metric.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	counters, gauges, hists := r.instruments()
	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for name, c := range counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for name, g := range gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for name, h := range hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON emits the snapshot as indented JSON. A nil registry writes
// the empty snapshot, keeping the output shape stable.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promName sanitizes a metric name into the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus emits every metric in the Prometheus text exposition
// format (text/plain; version 0.0.4): counters with a _total suffix,
// gauges as-is, histograms with cumulative le buckets, _sum and _count.
// Metrics appear in sorted name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges, hists := r.instruments()
	var b strings.Builder
	for _, name := range sortedNames(counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name].Value())
	}
	for _, name := range sortedNames(gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", pn, pn, gauges[name].Value())
	}
	for _, name := range sortedNames(hists) {
		pn := promName(name)
		bounds, cums, total, sum := hists[name].cumulativeBuckets()
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		for i, le := range bounds {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, formatLE(le), cums[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, total)
		fmt.Fprintf(&b, "%s_sum %g\n", pn, sum)
		fmt.Fprintf(&b, "%s_count %d\n", pn, total)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatLE renders a bucket bound the way Prometheus clients expect.
func formatLE(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
