package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"autoresched/internal/vclock"
)

func TestRecordAndSeries(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRecorder(clock)
	r.Record("load", 0.25)
	clock.Sleep(10 * time.Second)
	r.Record("load", 0.30)
	s := r.Series("load")
	if len(s.Points) != 2 || s.Points[0].V != 0.25 || s.Points[1].V != 0.30 {
		t.Fatalf("series = %+v", s)
	}
	if !s.Points[1].T.Equal(vclock.Epoch.Add(10 * time.Second)) {
		t.Fatalf("timestamp = %v", s.Points[1].T)
	}
	if got := r.Series("ghost"); len(got.Points) != 0 {
		t.Fatal("unknown series non-empty")
	}
	// Returned series is a copy.
	s.Points[0].V = 999
	if r.Series("load").Points[0].V == 999 {
		t.Fatal("Series returned aliased points")
	}
}

func TestSeriesStats(t *testing.T) {
	s := &Series{Name: "x", Points: []Point{
		{T: vclock.Epoch, V: 1},
		{T: vclock.Epoch.Add(time.Second), V: 3},
		{T: vclock.Epoch.Add(2 * time.Second), V: 2},
	}}
	if s.Mean() != 2 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 3 {
		t.Fatalf("max = %v", s.Max())
	}
	empty := &Series{}
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatal("empty series stats nonzero")
	}
}

func TestWindow(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 10; i++ {
		s.Points = append(s.Points, Point{T: vclock.Epoch.Add(time.Duration(i) * time.Second), V: float64(i)})
	}
	w := s.Window(vclock.Epoch.Add(3*time.Second), vclock.Epoch.Add(6*time.Second))
	if len(w.Points) != 3 || w.Points[0].V != 3 || w.Points[2].V != 5 {
		t.Fatalf("window = %+v", w.Points)
	}
}

func TestOverheadPct(t *testing.T) {
	if got := OverheadPct(0.266, 0.256); math.Abs(got-3.90625) > 1e-9 {
		t.Fatalf("overhead = %v", got)
	}
	if OverheadPct(1, 0) != 0 {
		t.Fatal("zero baseline mishandled")
	}
	if got := OverheadPct(0.9, 1.0); got >= 0 {
		t.Fatalf("negative overhead = %v", got)
	}
}

func TestTableRendersAlignedSeries(t *testing.T) {
	a := &Series{Name: "with", Points: []Point{
		{T: vclock.Epoch.Add(10 * time.Second), V: 0.266},
		{T: vclock.Epoch.Add(20 * time.Second), V: 0.27},
	}}
	b := &Series{Name: "without", Points: []Point{
		{T: vclock.Epoch.Add(10 * time.Second), V: 0.256},
	}}
	out := Table(vclock.Epoch, a, b)
	if !strings.Contains(out, "with\twithout") {
		t.Fatalf("header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "10\t0.266\t0.256") {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "cpu", Points: []Point{
		{T: vclock.Epoch.Add(10 * time.Second), V: 25.5},
		{T: vclock.Epoch.Add(20 * time.Second), V: 99},
	}}
	b := &Series{Name: "load", Points: []Point{
		{T: vclock.Epoch.Add(10 * time.Second), V: 0.25},
	}}
	var buf strings.Builder
	if err := WriteCSV(&buf, vclock.Epoch, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv = %q", buf.String())
	}
	if lines[0] != "t_seconds,cpu,load" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10.0,25.5") || !strings.HasSuffix(lines[1], "0.250000") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",") { // load column empty in row 2
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestSparkline(t *testing.T) {
	s := &Series{Name: "x", Points: []Point{
		{V: 0}, {V: 1}, {V: 2}, {V: 3},
	}}
	line := Sparkline(s)
	if len([]rune(line)) != 4 {
		t.Fatalf("sparkline = %q", line)
	}
	if Sparkline(&Series{}) != "" {
		t.Fatal("empty sparkline nonempty")
	}
	flat := &Series{Points: []Point{{V: 5}, {V: 5}}}
	if got := Sparkline(flat); len([]rune(got)) != 2 {
		t.Fatalf("flat sparkline = %q", got)
	}
}

// Property: Mean is bounded by min and max of its inputs.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return Mean(clean) == 0
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range clean {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m := Mean(clean)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
