package metrics

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := &Ring{Cap: 3}
	for i := 0; i < 5; i++ {
		r.Publish(Event{Source: SourceRegistry, Kind: fmt.Sprintf("k%d", i)})
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d, want cap 3", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("k%d", i+2); e.Kind != want {
			t.Fatalf("events[%d].Kind = %q, want %q", i, e.Kind, want)
		}
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestRingCountBy(t *testing.T) {
	r := &Ring{}
	r.Publish(Event{Source: SourceRegistry, Kind: "ordered"})
	r.Publish(Event{Source: SourceRegistry, Kind: "declined"})
	r.Publish(Event{Source: SourceJobs, Kind: "admitted"})
	if got := r.CountBy(SourceRegistry, ""); got != 2 {
		t.Fatalf("CountBy(registry) = %d", got)
	}
	if got := r.CountBy(SourceRegistry, "ordered"); got != 1 {
		t.Fatalf("CountBy(registry, ordered) = %d", got)
	}
	if got := r.CountBy(SourceHPCM, ""); got != 0 {
		t.Fatalf("CountBy(hpcm) = %d", got)
	}
}

func TestMultiFansOutAndSkipsNil(t *testing.T) {
	var a, b []Event
	sink := Multi(
		SinkFunc(func(e Event) { a = append(a, e) }),
		nil,
		SinkFunc(func(e Event) { b = append(b, e) }),
	)
	sink.Publish(Event{Kind: "x"})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("fan-out = %d/%d", len(a), len(b))
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Time:   time.Date(2004, 8, 15, 9, 30, 0, 0, time.UTC),
		Source: SourceHPCM,
		Kind:   "resume",
		Host:   "ws1",
		Dest:   "ws2",
		Proc:   "tree",
		PID:    7,
		Note:   "chunk 3",
		Err:    errors.New("boom"),
	}
	want := "09:30:00 hpcm/resume host=ws1 dest=ws2 proc=tree pid=7 (chunk 3) error=boom"
	if got := e.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRingConcurrentPublish(t *testing.T) {
	r := &Ring{Cap: 64}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Publish(Event{Source: SourceRegistry, Kind: "k"})
			}
		}()
	}
	wg.Wait()
	if r.Count() != 64 {
		t.Fatalf("Count = %d, want cap 64", r.Count())
	}
}

func TestNilRingIsANoOpSink(t *testing.T) {
	var r *Ring
	Multi(r).Publish(Event{Source: SourceJobs, Kind: "pending"})
	if r.Events() != nil || r.Count() != 0 || r.CountBy(SourceJobs, "") != 0 {
		t.Fatal("a nil Ring holds events")
	}
}
