package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"autoresched/internal/vclock"
)

func TestRecordAndSeries(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := NewRecorder(clock)
	r.Record("load", 0.25)
	clock.Advance(10 * time.Second)
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
	if names := r.Names(); len(names) != 1 || names[0] != "load" {
		t.Fatalf("names = %v", names)
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
	if got := s.Quantile(0.5); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("min quantile = %v", got)
	}
	if got := s.Quantile(1); got != 3 {
		t.Fatalf("max quantile = %v", got)
	}
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile nonzero")
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

func TestPollSamplesOnClock(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := NewRecorder(clock)
	n := 0.0
	stop := r.Poll("counter", 10*time.Second, func() (float64, error) {
		n++
		return n, nil
	})
	defer stop()
	for i := 0; i < 3; i++ {
		clock.WaitUntilWaiters(1)
		clock.Advance(10 * time.Second)
		deadline := time.Now().Add(2 * time.Second)
		for len(r.Series("counter").Points) < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("sample %d missing", i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stop()
	stop() // idempotent
	vals := r.Series("counter").Values()
	if len(vals) < 3 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("values = %v", vals)
	}
}

func TestStopPolls(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := NewRecorder(clock)
	r.Poll("a", time.Second, func() (float64, error) { return 1, nil })
	r.Poll("b", time.Second, func() (float64, error) { return 2, nil })
	r.StopPolls()
	r.StopPolls() // idempotent
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

// Regression: a poll that ends on a sampling error must remove itself from
// the recorder, and its stop function plus StopPolls must both stay safe —
// the stale entry used to make StopPolls close an already-closed channel.
func TestPollErrorPrunesPoller(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := NewRecorder(clock)
	stop := r.Poll("failing", time.Second, func() (float64, error) {
		return 0, errors.New("sensor broke")
	})
	clock.WaitUntilWaiters(1)
	clock.Advance(time.Second) // fn fires, errors, poller exits

	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.polls)
		r.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale poller still registered: %d", n)
		}
		time.Sleep(time.Millisecond)
	}
	stop()        // must not hang or panic on the already-dead poller
	r.StopPolls() // must not double-close the poller's stop channel
}

// Regression: the individual stop function and StopPolls may both fire for
// the same live poller; the second close used to panic.
func TestStopThenStopPolls(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := NewRecorder(clock)
	stop := r.Poll("a", time.Second, func() (float64, error) { return 1, nil })
	stop()
	r.StopPolls()
}
