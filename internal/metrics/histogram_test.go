package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 100 samples at ~2ms: every quantile is the bucket bound holding 2ms.
	for i := 0; i < 100; i++ {
		h.Observe(2e-3)
	}
	want := histBounds[bucketOf(2e-3)]
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if math.Abs(h.sumSeconds()-0.2) > 1e-9 {
		t.Fatalf("Sum = %v, want 0.2", h.sumSeconds())
	}
}

func TestHistogramQuantileSplit(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(1e-3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	if got, want := h.Quantile(0.5), histBounds[bucketOf(1e-3)]; got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	if got, want := h.Quantile(0.95), histBounds[bucketOf(1.0)]; got != want {
		t.Fatalf("p95 = %v, want %v", got, want)
	}
}

func TestHistogramEdgeSamples(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)          // clamps to 0 → first bucket
	h.Observe(0)           // first bucket
	h.Observe(math.NaN())  // clamps to 0
	h.Observe(math.Inf(1)) // overflow bucket
	h.Observe(1e9)         // overflow bucket
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Fatalf("max quantile = %v, want +Inf", got)
	}
	if got := h.Quantile(0.2); got != histBounds[0] {
		t.Fatalf("min quantile = %v, want %v", got, histBounds[0])
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.Merge(NewHistogram())
	if h.Count() != 0 || h.sumSeconds() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must be inert")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must be inert")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Observe(1e-3)
		b.Observe(10)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", a.Count())
	}
	if got, want := a.Quantile(0.95), histBounds[bucketOf(10.0)]; got != want {
		t.Fatalf("merged p95 = %v, want %v", got, want)
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {math.Inf(1), ">1e4s"},
		{1e-6, "1us"}, {1e-4, "100us"}, {1e-3, "1ms"}, {1e-2, "10ms"},
		{1, "1s"}, {10, "10s"}, {1e4, "10000s"},
		// Irrational bucket bounds round to three significant digits.
		{math.Pow(10, 0.2), "1.58s"}, {math.Pow(10, -0.2), "631ms"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.v); got != c.want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("registry/restarts").Inc()
	reg.Gauge("registry/hosts").Set(4)
	reg.Histogram("span/total").Observe(1.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE registry_restarts_total counter",
		"registry_restarts_total 1",
		"# TYPE registry_hosts gauge",
		"registry_hosts 4",
		"# TYPE span_total histogram",
		`span_total_bucket{le="+Inf"} 1`,
		"span_total_count 1",
		"span_total_sum 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryMergeAndSnapshot(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("span/total").Observe(1)
	b.Histogram("span/total").Observe(1)
	b.Gauge("g").Set(7)
	a.Merge(b)
	if got := a.Histogram("span/total").Count(); got != 2 {
		t.Fatalf("merged count = %d, want 2", got)
	}
	snap := a.Snapshot()
	if snap.Gauges["g"] != 7 {
		t.Fatalf("snapshot gauge = %v, want 7", snap.Gauges["g"])
	}
	hs, ok := snap.Histograms["span/total"]
	if !ok || hs.Count != 2 || hs.P50 == 0 {
		t.Fatalf("snapshot histogram = %+v, ok=%v", hs, ok)
	}
	// Nil registry is inert everywhere.
	var nilReg *Registry
	nilReg.Histogram("x").Observe(1)
	nilReg.Gauge("x").Set(1)
	nilReg.Counter("x").Inc()
	nilReg.Merge(a)
	if err := nilReg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}
