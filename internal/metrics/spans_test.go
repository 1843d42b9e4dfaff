package metrics

import (
	"testing"
	"time"
)

func spanEvent(t time.Time, source, kind, host, dest, proc string) Event {
	return Event{Time: t, Source: source, Kind: kind, Host: host, Dest: dest, Proc: proc}
}

func TestSpansFullMigration(t *testing.T) {
	reg := NewRegistry()
	s := NewSpans(reg)
	t0 := time.Date(2004, 4, 1, 0, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	s.Publish(spanEvent(at(0), SourceCommander, "order", "ws1", "ws2", ""))
	s.Publish(spanEvent(at(2*time.Second), SourceHPCM, "start", "ws1", "ws2", "app"))
	s.Publish(spanEvent(at(3*time.Second), SourceHPCM, "init", "ws1", "ws2", "app"))
	s.Publish(spanEvent(at(5*time.Second), SourceHPCM, "resume", "ws1", "ws2", "app"))
	s.Publish(spanEvent(at(9*time.Second), SourceHPCM, "restore", "ws1", "ws2", "app"))

	check := func(name string, wantSeconds float64) {
		t.Helper()
		h := reg.Histogram(name)
		if h.Count() != 1 {
			t.Fatalf("%s count = %d, want 1", name, h.Count())
		}
		if got := h.sumSeconds(); got != wantSeconds {
			t.Fatalf("%s sum = %v, want %v", name, got, wantSeconds)
		}
	}
	check(SpanPollWait, 2)
	check(SpanInit, 1)
	check(SpanTransfer, 2)
	check(SpanRestore, 4)
	check(SpanTotal, 9)
}

func TestSpansWithoutOrderAnchorsOnStart(t *testing.T) {
	reg := NewRegistry()
	s := NewSpans(reg)
	t0 := time.Date(2004, 4, 1, 0, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	// No commander order: a spontaneous migration. total = start→restore.
	s.Publish(spanEvent(at(0), SourceHPCM, "start", "ws1", "ws2", "app"))
	s.Publish(spanEvent(at(time.Second), SourceHPCM, "init", "ws1", "ws2", "app"))
	s.Publish(spanEvent(at(2*time.Second), SourceHPCM, "resume", "ws1", "ws2", "app"))
	s.Publish(spanEvent(at(3*time.Second), SourceHPCM, "restore", "ws1", "ws2", "app"))

	if got := reg.Histogram(SpanPollWait).Count(); got != 0 {
		t.Fatalf("poll_wait count = %d, want 0", got)
	}
	if got := reg.Histogram(SpanTotal).sumSeconds(); got != 3 {
		t.Fatalf("total sum = %v, want 3", got)
	}
}

func TestSpansAbortCleansUp(t *testing.T) {
	reg := NewRegistry()
	s := NewSpans(reg)
	t0 := time.Date(2004, 4, 1, 0, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	s.Publish(spanEvent(at(0), SourceCommander, "order", "ws1", "ws2", ""))
	s.Publish(spanEvent(at(time.Second), SourceHPCM, "start", "ws1", "ws2", "app"))
	s.Publish(spanEvent(at(2*time.Second), SourceHPCM, "aborted", "ws1", "ws2", "app"))
	// A later restore for the same proc must be ignored — the span is gone.
	s.Publish(spanEvent(at(3*time.Second), SourceHPCM, "restore", "ws1", "ws2", "app"))

	if got := reg.Histogram(SpanTotal).Count(); got != 0 {
		t.Fatalf("total count after abort = %d, want 0", got)
	}
	if got := reg.Histogram(SpanPollWait).Count(); got != 1 {
		t.Fatalf("poll_wait count = %d, want 1", got)
	}
}

func TestSpansNilSafe(t *testing.T) {
	var s *Spans
	s.Publish(Event{Source: SourceHPCM, Kind: "start"})
}

func TestSpanStats(t *testing.T) {
	reg := NewRegistry()
	NewSpans(reg) // pre-creates all five span histograms
	reg.Histogram(SpanTotal).Observe(3)
	stats := reg.SpanStats("span/")
	if len(stats) != 5 {
		t.Fatalf("len(stats) = %d, want 5", len(stats))
	}
	for _, st := range stats {
		if st.Name == SpanTotal {
			// 3 s lands in the bucket bounded by 10^0.6 ≈ 3.98 s.
			if st.Count != 1 || st.P50 != "3.98s" {
				t.Fatalf("span/total stat = %+v, want count 1 p50 3.98s", st)
			}
		} else if st.Count != 0 || st.P50 != "0" {
			t.Fatalf("%s stat = %+v, want empty", st.Name, st)
		}
	}
}
