package livemig

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustPages(t *testing.T, size, pageBytes int) *Pages {
	t.Helper()
	p, err := NewPages(size, pageBytes)
	if err != nil {
		t.Fatalf("NewPages(%d, %d): %v", size, pageBytes, err)
	}
	return p
}

func TestPagesGeometry(t *testing.T) {
	p := mustPages(t, 100, 32)
	if p.Len() != 100 || p.PageSize() != 32 || p.NumPages() != 4 {
		t.Fatalf("geometry = (%d, %d, %d), want (100, 32, 4)", p.Len(), p.PageSize(), p.NumPages())
	}
	if _, err := NewPages(0, 32); err == nil {
		t.Fatal("NewPages(0) succeeded")
	}
	// A word must not straddle two pages: SetFloat64(1, x) on 12-byte pages
	// would write into pages 0 and 1 and dirty only page 0.
	if _, err := NewPages(48, 12); err == nil || !strings.Contains(err.Error(), "12") {
		t.Fatalf("NewPages(48, 12) = %v, want an error naming the page size", err)
	}
	// A fresh region is entirely dirty since generation zero.
	if got := p.DirtySince(0); len(got) != 4 {
		t.Fatalf("fresh DirtySince(0) = %v, want all 4 pages", got)
	}
}

func TestPagesWriteDirtiesOnlyChangedPages(t *testing.T) {
	p := mustPages(t, 128, 32) // 4 words per page
	g := p.Gen()
	p.WriteFloat64s(5, []float64{1, 2})
	if got := p.DirtySince(g); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("DirtySince = %v, want [1]", got)
	}
	// Rewriting identical words must not dirty anything.
	g = p.Gen()
	p.WriteFloat64s(5, []float64{1, 2})
	if got := p.DirtySince(g); len(got) != 0 {
		t.Fatalf("unchanged write dirtied %v", got)
	}
	// A write spanning a page boundary dirties both pages.
	g = p.Gen()
	p.WriteFloat64s(3, []float64{9, 9, 9})
	if got := p.DirtySince(g); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("spanning write dirtied %v, want [0 1]", got)
	}
}

// TestZeroAllocHotPaths pins at runtime what the paged migration's inner
// loops cost: a row-sized change-suppressed write and a row-sized read (the
// write barrier a paged workload pays per sweep) and one evaluation of the
// analytic downtime model allocate nothing, a dirty count nothing, and a
// dirty scan, like a whole-region snapshot into a buffer, only the id list
// it returns.
func TestZeroAllocHotPaths(t *testing.T) {
	const words = 512
	p := mustPages(t, words*8*64, words*8)
	row := make([]float64, words)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		i++
		row[0] = float64(i) // keep at least one word changing
		p.WriteFloat64s((i%64)*words, row)
	}); avg != 0 {
		t.Errorf("WriteFloat64s over one row allocates %.1f objects per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		i++
		p.ReadFloat64s((i%64)*words, row)
	}); avg != 0 {
		t.Errorf("ReadFloat64s over one row allocates %.1f objects per op, want 0", avg)
	}
	g := p.Gen()
	for k := 0; k < 64; k += 3 {
		p.SetFloat64(k*words, -float64(k+1)) // rows hold no negative word yet
	}
	if avg := testing.AllocsPerRun(200, func() { p.DirtySince(g) }); avg != 1 {
		t.Errorf("DirtySince allocates %.1f objects per op, want 1", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { p.dirtyCount(g) }); avg != 0 {
		t.Errorf("dirtyCount allocates %.1f objects per op, want 0", avg)
	}
	buf := make([]byte, p.Len())
	if avg := testing.AllocsPerRun(200, func() { p.Snapshot(0, buf) }); avg != 1 {
		t.Errorf("Snapshot(0) into a buffer allocates %.1f objects per op, want 1 (its id list)", avg)
	}

	sc := modelScenario
	sc.DirtyPagesPerSec = 1000
	if avg := testing.AllocsPerRun(200, func() { Simulate(sc) }); avg != 0 {
		t.Errorf("Simulate allocates %.1f objects per op, want 0", avg)
	}
}

func TestPagesFloat64ChangeSuppression(t *testing.T) {
	p := mustPages(t, 64*8, 64) // 8 words per page
	g := p.Gen()
	p.SetFloat64(3, 1.5)
	if got := p.Float64(3); got != 1.5 {
		t.Fatalf("Float64(3) = %v", got)
	}
	if got := p.DirtySince(g); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("DirtySince = %v, want [0]", got)
	}
	g = p.Gen()
	p.SetFloat64(3, 1.5) // same bits: suppressed
	p.WriteFloat64s(8, []float64{0, 0, 0})
	if got := p.DirtySince(g); len(got) != 0 {
		t.Fatalf("no-op writes dirtied %v", got)
	}
	g = p.Gen()
	p.WriteFloat64s(8, []float64{0, 2.5, 0}) // one changed word in page 1
	if got := p.DirtySince(g); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("DirtySince = %v, want [1]", got)
	}
	dst := make([]float64, 3)
	p.ReadFloat64s(8, dst)
	if !reflect.DeepEqual(dst, []float64{0, 2.5, 0}) {
		t.Fatalf("ReadFloat64s = %v", dst)
	}
}

func TestPagesSnapshotLoadApply(t *testing.T) {
	p := mustPages(t, 96, 32)
	p.SetFloat64(0, 7)
	ids, data, gen := p.Snapshot(0, nil)
	if len(ids) != 3 || !reflect.DeepEqual(data, p.View()) || &data[0] == &p.View()[0] {
		t.Fatalf("full snapshot = %v (%d bytes), want all 3 pages as a copy of the region", ids, len(data))
	}
	// A round is one fresh buffer, its pages back to back: only the region's
	// last page is short.
	short := mustPages(t, 100, 32)
	tail := make([]byte, 100)
	copy(tail[90:], []byte{1, 2, 3})
	want := append([]byte(nil), tail...)
	if err := short.Load(tail); err != nil {
		t.Fatal(err)
	}
	_, whole, mark := short.Snapshot(0, nil)
	short.SetFloat64(5, 1) // page 1, after the copy was taken
	if cut, _, _ := short.Snapshot(mark, nil); !reflect.DeepEqual(whole, want) || !reflect.DeepEqual(cut, []int{1}) {
		t.Fatalf("snapshots = %v then pages %v, want the loaded image then page 1", whole, cut)
	}
	// Writes after the snapshot's watermark are the next round's delta.
	p.SetFloat64(8, 9) // page 2
	ids2, data2, _ := p.Snapshot(gen, nil)
	if !reflect.DeepEqual(ids2, []int{2}) || len(data2) != 32 {
		t.Fatalf("delta snapshot = %v (%d bytes), want [2] (32 bytes)", ids2, len(data2))
	}

	// Rebuild a destination image from the two snapshots.
	q := append([]byte(nil), data...)
	for k, id := range ids2 {
		copy(q[id*32:], data2[k*32:])
	}
	if !reflect.DeepEqual(q, p.View()) {
		t.Fatal("reassembled region differs from source")
	}

	// An Unloaded region has no memory until Load installs the image it is
	// handed — adopted, not copied — and every page is dirty after.
	r, err := Unloaded(96, 32)
	if err != nil || r.Len() != 0 || r.NumPages() != 3 {
		t.Fatalf("Unloaded(96, 32) = Len %d, %d pages, %v", r.Len(), r.NumPages(), err)
	}
	g := r.Gen()
	if err := r.Load(q); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 96 || &r.View()[0] != &q[0] {
		t.Fatal("Load copied the image")
	}
	if got := r.DirtySince(g); len(got) != 3 {
		t.Fatalf("Load dirtied %v, want all pages", got)
	}
	r.SetFloat64(1, 3)
	if math.Float64frombits(binary.NativeEndian.Uint64(q[8:])) != 3 {
		t.Fatal("a write after Load missed the adopted image")
	}
	if err := r.Load(q[:10]); err == nil {
		t.Fatal("Load with wrong size succeeded")
	}
}

func TestDecide(t *testing.T) {
	cases := []struct {
		round, dirty, prev int
		want               Decision
	}{
		{1, 4, 100, Freeze},    // tiny residual freezes immediately
		{1, 60, 100, Continue}, // round 1 always gets a second round
		{2, 30, 60, Continue},  // shrinking (30 < 0.7*60)
		{2, 45, 60, Freeze},    // stalled but residual < 50%: freeze anyway
		{2, 58, 60, Fallback},  // stalled with residual > 50%: fall back
		{7, 20, 40, Continue},  // shrinking, one round below the cap
		{8, 20, 40, Freeze},    // max rounds, modest residual
		{8, 60, 90, Fallback},  // max rounds, huge residual
		{3, 10, 40, Continue},  // still shrinking fast
	}
	for _, c := range cases {
		if got := Decide(c.round, c.dirty, c.prev, 100); got != c.want {
			t.Errorf("Decide(round=%d dirty=%d prev=%d) = %v, want %v", c.round, c.dirty, c.prev, got, c.want)
		}
	}
	if got := Decide(1, 0, 0, 0); got != Freeze {
		t.Errorf("empty region Decide = %v, want Freeze", got)
	}
	for d, s := range map[Decision]string{Continue: "continue", Freeze: "freeze", Fallback: "fallback", Decision(9): "Decision(9)"} {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

// recordingSend captures each round's page count and optionally dirties
// pages between rounds, emulating an application computing while the round
// is on the wire.
type recordingSend struct {
	sent    []int
	between func(round int)
	fail    error
}

func (s *recordingSend) send(round int, ids []int, data []byte) error {
	if s.fail != nil {
		return s.fail
	}
	if (len(ids) == 0) != (len(data) == 0) {
		return errors.New("ids/data mismatch")
	}
	s.sent = append(s.sent, len(ids))
	if s.between != nil {
		s.between(round)
	}
	return nil
}

func never() bool { return false }

func TestDriverConvergesToFreeze(t *testing.T) {
	p := mustPages(t, 16*64, 64) // 16 pages
	dirtied := map[int]int{1: 6, 2: 3, 3: 0}
	s := &recordingSend{}
	s.between = func(round int) {
		for i := 0; i < dirtied[round]; i++ {
			p.SetFloat64(i*8, float64(round)+float64(i)) // page i
		}
	}
	res, err := Precopy(p, nil, never, s.send)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Freeze {
		t.Fatalf("decision = %v, want Freeze", res.Decision)
	}
	// Round 1 ships all 16 pages, round 2 the 6 dirtied, round 3 the 3.
	if want := []int{16, 6, 3}; !reflect.DeepEqual(s.sent, want) {
		t.Fatalf("per-round sent = %v, want %v", s.sent, want)
	}
	if res.Rounds != 3 || res.PagesSent != 25 || res.PagesResent != 9 {
		t.Fatalf("result = %+v", res)
	}
	// Nothing was written after the last snapshot: the residual is empty.
	if got := p.DirtySince(res.ShippedGen); len(got) != 0 {
		t.Fatalf("residual = %v, want none", got)
	}
}

func TestDriverFallsBackWhenDirtyStalls(t *testing.T) {
	p := mustPages(t, 16*64, 64)
	s := &recordingSend{}
	s.between = func(round int) {
		// Every round dirties 12 of 16 pages: no convergence.
		for i := 0; i < 12; i++ {
			p.SetFloat64(i*8, float64(round*100+i))
		}
	}
	res, err := Precopy(p, nil, never, s.send)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Fallback {
		t.Fatalf("decision = %v, want Fallback", res.Decision)
	}
}

func TestDriverStopAndSendError(t *testing.T) {
	p := mustPages(t, 4*64, 64)
	if _, err := Precopy(p, nil, never, (&recordingSend{fail: errors.New("link down")}).send); err == nil {
		t.Fatal("Precopy with failing send succeeded")
	}
	stopped := func() bool { return true }
	if _, err := Precopy(p, nil, stopped, (&recordingSend{}).send); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped Precopy err = %v, want ErrStopped", err)
	}
}

func TestSimulateCrossover(t *testing.T) {
	base := Scenario{
		TotalPages:       4096,
		PageBytes:        4096,
		Bandwidth:        12.5e6,
		SpawnLatency:     300 * time.Millisecond,
		Handshake:        2 * time.Millisecond,
		DirtyPagesPerSec: 100,
	}
	slow := Simulate(base)
	if slow.Mode != "precopy" {
		t.Fatalf("low dirty rate mode = %q, want precopy", slow.Mode)
	}
	if slow.Downtime >= slow.StopCopy {
		t.Fatalf("precopy downtime %v not below stop-and-copy %v", slow.Downtime, slow.StopCopy)
	}
	hot := base
	hot.DirtyPagesPerSec = 50_000
	fb := Simulate(hot)
	if fb.Mode != "fallback" {
		t.Fatalf("hot dirty rate mode = %q, want fallback", fb.Mode)
	}
	if fb.Downtime < fb.StopCopy {
		t.Fatalf("fallback downtime %v below stop-and-copy %v", fb.Downtime, fb.StopCopy)
	}
	// Identical inputs must produce identical outcomes (the determinism the
	// experiment sweep relies on).
	if again := Simulate(hot); again != fb {
		t.Fatalf("Simulate not deterministic: %+v vs %+v", again, fb)
	}
}
