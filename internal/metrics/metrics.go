// Package metrics records the time series the evaluation plots: load
// averages, CPU utilisation and network rates sampled at fixed intervals
// (10 seconds in the paper), plus the summary statistics quoted in Section
// 5 (means, overhead percentages). It also holds the runtime's two
// telemetry inputs: the instruments of a Registry, and the event stream a
// Sink receives (events.go).
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"autoresched/internal/vclock"
)

// Point is one sample.
type Point struct {
	T time.Time
	V float64
}

// Series is a named, time-ordered sample sequence.
type Series struct {
	Name   string
	Points []Point
}

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	if s == nil {
		return nil
	}
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Mean returns the arithmetic mean of the series (0 for empty).
func (s *Series) Mean() float64 {
	if s == nil {
		return 0
	}
	return Mean(s.Values())
}

// Max returns the maximum value (0 for empty).
func (s *Series) Max() float64 {
	if s == nil {
		return 0
	}
	best := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > best {
			best = p.V
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// Window returns the sub-series within [from, to).
func (s *Series) Window(from, to time.Time) *Series {
	if s == nil {
		return &Series{}
	}
	out := &Series{Name: s.Name}
	for _, p := range s.Points {
		if !p.T.Before(from) && p.T.Before(to) {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Mean returns the arithmetic mean of vals (0 for empty).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// OverheadPct is the relative overhead of with versus without, in percent:
// 100*(with-without)/without. Zero baseline yields 0.
func OverheadPct(with, without float64) float64 {
	if without == 0 {
		return 0
	}
	return 100 * (with - without) / without
}

// Recorder collects named series against a clock. A nil *Recorder is a
// no-op: recording is dropped and lookups return empty series, so
// components can treat the recorder as optional.
type Recorder struct {
	clock vclock.Clock
	start time.Time

	mu     sync.Mutex
	series map[string]*Series
}

// NewRecorder creates a recorder stamped against clock.
func NewRecorder(clock vclock.Clock) *Recorder {
	return &Recorder{
		clock:  clock,
		start:  clock.Now(),
		series: make(map[string]*Series),
	}
}

// Start returns the recorder's creation instant.
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Record appends a sample to a series, creating it on first use.
func (r *Recorder) Record(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
	}
	s.Points = append(s.Points, Point{T: r.clock.Now(), V: v})
}

// Series returns a copy of the named series (empty series if unknown).
func (r *Recorder) Series(name string) *Series {
	if r == nil {
		return &Series{Name: name}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		return &Series{Name: name}
	}
	out := &Series{Name: name, Points: append([]Point(nil), s.Points...)}
	return out
}

// Table renders series side by side: one row per sample index, the first
// column the elapsed seconds of the first series' samples. It is the
// plain-text stand-in for the paper's figures.
func Table(base time.Time, series ...*Series) string {
	var b strings.Builder
	b.WriteString("t(s)")
	for _, s := range series {
		fmt.Fprintf(&b, "\t%s", s.Name)
	}
	b.WriteByte('\n')
	rows := 0
	for _, s := range series {
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	for i := 0; i < rows; i++ {
		stamped := false
		var cells []string
		for _, s := range series {
			if i < len(s.Points) {
				if !stamped {
					fmt.Fprintf(&b, "%.0f", s.Points[i].T.Sub(base).Seconds())
					stamped = true
				}
				cells = append(cells, fmt.Sprintf("%.3f", s.Points[i].V))
			} else {
				cells = append(cells, "")
			}
		}
		if !stamped {
			b.WriteString("?")
		}
		for _, c := range cells {
			b.WriteByte('\t')
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteCSV emits series side by side as CSV: a header row, then one row
// per sample index with the elapsed seconds of the row's first present
// sample — the format for re-plotting the figures with external tools.
func WriteCSV(w io.Writer, base time.Time, series ...*Series) error {
	cw := csv.NewWriter(w)
	header := []string{"t_seconds"}
	rows := 0
	for _, s := range series {
		header = append(header, s.Name)
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		row := make([]string, 1, len(series)+1)
		for _, s := range series {
			if i < len(s.Points) {
				if row[0] == "" {
					row[0] = strconv.FormatFloat(s.Points[i].T.Sub(base).Seconds(), 'f', 1, 64)
				}
				row = append(row, strconv.FormatFloat(s.Points[i].V, 'f', 6, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Sparkline renders a series as a one-line unicode sparkline, for quick
// terminal inspection of a figure's shape.
func Sparkline(s *Series) string {
	if len(s.Points) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range s.Points {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	var b strings.Builder
	for _, p := range s.Points {
		idx := 0
		if hi > lo {
			idx = int((p.V - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}
