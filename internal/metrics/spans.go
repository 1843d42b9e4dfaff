package metrics

import (
	"sort"
	"strings"
)

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
