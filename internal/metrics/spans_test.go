package metrics

import "testing"

func TestSpanStats(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"span/init", "span/poll_wait", "span/restore", "span/total", "span/transfer"} {
		reg.Histogram(name)
	}
	reg.Histogram("other/seconds").Observe(1)
	reg.Histogram("span/total").Observe(3)
	stats := reg.SpanStats("span/")
	if len(stats) != 5 {
		t.Fatalf("len(stats) = %d, want 5", len(stats))
	}
	for _, st := range stats {
		if st.Name == "span/total" {
			// 3 s lands in the bucket bounded by 10^0.6 ≈ 3.98 s.
			if st.Count != 1 || st.P50 != "3.98s" {
				t.Fatalf("span/total stat = %+v, want count 1 p50 3.98s", st)
			}
		} else if st.Count != 0 || st.P50 != "0" {
			t.Fatalf("%s stat = %+v, want empty", st.Name, st)
		}
	}
}
