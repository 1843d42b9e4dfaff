package livemig

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// wordOracle is the write barrier as one word at a time: compare a word's
// bits, store it and dirty its page, each changed page touched once per
// write. Pages moves whole page spans instead and must match it exactly.
type wordOracle struct {
	data     []byte
	pageSize int
	gens     []uint64
	gen      uint64
}

func newWordOracle(size, pageSize int) *wordOracle {
	o := &wordOracle{
		data:     make([]byte, size),
		pageSize: pageSize,
		gens:     make([]uint64, (size+pageSize-1)/pageSize),
		gen:      1,
	}
	for i := range o.gens {
		o.gens[i] = 1
	}
	return o
}

func (o *wordOracle) write(i int, vals []float64) {
	dirtyPage := -1
	for k, v := range vals {
		off := 8 * (i + k)
		bits := math.Float64bits(v)
		if binary.NativeEndian.Uint64(o.data[off:]) == bits {
			continue
		}
		binary.NativeEndian.PutUint64(o.data[off:], bits)
		if page := off / o.pageSize; page != dirtyPage {
			o.gen++
			o.gens[page] = o.gen
			dirtyPage = page
		}
	}
}

func (o *wordOracle) dirtySince(gen uint64) []int {
	var ids []int
	for i, g := range o.gens {
		if g > gen {
			ids = append(ids, i)
		}
	}
	return ids
}

func (o *wordOracle) word(i int) float64 {
	return math.Float64frombits(binary.NativeEndian.Uint64(o.data[8*i:]))
}

// TestPagesWritesMatchWordOracle applies seeded random writes to a region and
// to the word-at-a-time oracle and compares the region bytes, the dirty set
// and the generation after every write. The writes straddle pages, reach
// into a short last page, rewrite unchanged values, rewrite NaNs with equal
// and with other payloads, and store +0 over -0. Access past the end
// panics.
func TestPagesWritesMatchWordOracle(t *testing.T) {
	nans := []float64{
		math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0001), // quiet, other payload
		math.Float64frombits(0x7ff0_0000_0000_0002), // signalling
		math.Float64frombits(0xfff8_0000_0000_0000), // negative quiet
	}
	pool := append([]float64{0, math.Copysign(0, -1), 1, 2.5, -7, math.Inf(1)}, nans...)
	geometries := []struct{ size, pageBytes int }{
		{8 * 61, 64},   // seven 8-word pages and a short 5-word page
		{8 * 40, 8},    // one word per page
		{8 * 100, 96},  // 12-word pages, a short 4-word last page
		{8 * 30, 4096}, // one short page
		{8 * 128, 128}, // whole pages only
	}
	for _, geo := range geometries {
		rng := rand.New(rand.NewSource(int64(geo.size*7 + geo.pageBytes)))
		p := mustPages(t, geo.size, geo.pageBytes)
		o := newWordOracle(geo.size, geo.pageBytes)
		words := geo.size / 8
		marks := []uint64{0}
		write := func(step, i int, vals []float64) {
			t.Helper()
			g := p.Gen()
			p.WriteFloat64s(i, vals)
			o.write(i, vals)
			if !bytes.Equal(p.View(), o.data) {
				t.Fatalf("size %d page %d step %d: write of %d words at %d: region bytes differ from the oracle",
					geo.size, geo.pageBytes, step, len(vals), i)
			}
			if p.Gen() != o.gen {
				t.Fatalf("size %d page %d step %d: Gen = %d, oracle %d", geo.size, geo.pageBytes, step, p.Gen(), o.gen)
			}
			mark := marks[rng.Intn(len(marks))]
			for _, since := range []uint64{g, mark} {
				if got, want := p.DirtySince(since), o.dirtySince(since); !reflect.DeepEqual(got, want) {
					t.Fatalf("size %d page %d step %d: DirtySince(%d) = %v, oracle %v",
						geo.size, geo.pageBytes, step, since, got, want)
				}
			}
			marks = append(marks, g)
		}

		// The pinned cases first: +0 over -0 (different bits), a NaN over
		// itself (equal bits) and over another payload (unequal bits).
		write(-4, 0, []float64{math.Copysign(0, -1)})
		write(-3, 0, []float64{0})
		write(-2, 1, []float64{nans[0], nans[1]})
		write(-1, 1, []float64{nans[0], nans[2]})

		for step := 0; step < 2000; step++ {
			i := rng.Intn(words)
			n := rng.Intn(min(words-i, 3*geo.pageBytes/8+2) + 1)
			vals := make([]float64, n)
			switch rng.Intn(4) {
			case 0: // unchanged: what the region already holds
				p.ReadFloat64s(i, vals)
			case 1: // unchanged but one word
				p.ReadFloat64s(i, vals)
				if n > 0 {
					vals[rng.Intn(n)] = pool[rng.Intn(len(pool))]
				}
			default:
				for k := range vals {
					vals[k] = pool[rng.Intn(len(pool))]
				}
			}
			write(step, i, vals)

			// A read of any window agrees with the oracle bit for bit.
			ri := rng.Intn(words)
			got := make([]float64, rng.Intn(words-ri+1))
			p.ReadFloat64s(ri, got)
			for k, v := range got {
				if math.Float64bits(v) != math.Float64bits(o.word(ri+k)) {
					t.Fatalf("size %d page %d step %d: ReadFloat64s(%d)[%d] = %x, oracle %x", geo.size, geo.pageBytes,
						step, ri, k, math.Float64bits(v), math.Float64bits(o.word(ri+k)))
				}
			}
		}
	}

	// A row read or write past the region's end panics, also when the
	// region was loaded from a window of a larger buffer whose capacity
	// runs on.
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	p := mustPages(t, 8*20, 64)
	mustPanic("ReadFloat64s past the end", func() { p.ReadFloat64s(18, make([]float64, 3)) })
	mustPanic("WriteFloat64s past the end", func() { p.WriteFloat64s(18, []float64{1, 2, 3}) })
	mustPanic("ReadFloat64s after the end", func() { p.ReadFloat64s(21, make([]float64, 1)) })

	backing := make([]byte, 8*24)
	w, err := Unloaded(8*20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(backing[:8*20]); err != nil {
		t.Fatal(err)
	}
	mustPanic("ReadFloat64s past a loaded window", func() { w.ReadFloat64s(19, make([]float64, 2)) })
	mustPanic("WriteFloat64s past a loaded window", func() { w.WriteFloat64s(19, []float64{1, 2}) })
	if !bytes.Equal(backing[8*20:], make([]byte, 8*4)) {
		t.Fatalf("a write past the region reached the buffer behind it: %v", backing[8*20:])
	}
}

// TestSnapshotSeesWholeRowWrites pins that a row write holds the region lock
// for the whole call: a writer stamps every word of a four-page row with one
// version while Snapshot runs beside it, and every snapshot must see each
// row whole, one version across its pages. Run under -race in `make ci`.
func TestSnapshotSeesWholeRowWrites(t *testing.T) {
	const (
		rowWords  = 64
		pageBytes = rowWords * 8 / 4
		rows      = 8
		versions  = 200
	)
	p := mustPages(t, rows*rowWords*8, pageBytes)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := make([]float64, rowWords)
		for v := 1; v <= versions; v++ {
			for k := range row {
				row[k] = float64(v)
			}
			for r := 0; r < rows; r++ {
				p.WriteFloat64s(r*rowWords, row)
			}
		}
	}()
	check := func() {
		ids, data, _ := p.Snapshot(0, nil)
		if len(ids) != p.NumPages() {
			t.Fatalf("Snapshot(0) has %d pages, want %d", len(ids), p.NumPages())
		}
		for r := 0; r < rows; r++ {
			first := binary.NativeEndian.Uint64(data[r*rowWords*8:])
			for k := 1; k < rowWords; k++ {
				if w := binary.NativeEndian.Uint64(data[(r*rowWords+k)*8:]); w != first {
					t.Fatalf("row %d holds two versions: word 0 is %v, word %d is %v",
						r, math.Float64frombits(first), k, math.Float64frombits(w))
				}
			}
		}
	}
	for p.Float64(rows*rowWords-1) != versions {
		check()
	}
	wg.Wait()
	check()
}

// TestWholeSnapshotSeesWholeRowWritesAcrossRuns is TestSnapshotSeesWholeRowWrites
// on a region of more than four copy runs, whose rows span pages and
// straddle the runs' boundaries: a whole-region Snapshot releases the lock
// between runs, and must still see each row at one version. After the
// writer stops, every page not dirtied since a snapshot's watermark must
// hold that snapshot's bytes. Run under -race in `make ci`.
func TestWholeSnapshotSeesWholeRowWritesAcrossRuns(t *testing.T) {
	const (
		pageBytes = 3072
		rowWords  = 7 * pageBytes / 16 // three and a half pages
		rows      = 100
		versions  = 100
		keep      = 4 // snapshots checked against the region at the end
	)
	run := snapshotRun / pageBytes * pageBytes
	size := rows * rowWords * 8
	if size < 4*run {
		t.Fatalf("the region spans %d bytes, less than four %d-byte runs", size, run)
	}
	for b := run; b < size; b += run {
		if b%(rowWords*8) == 0 {
			t.Fatalf("run boundary %d falls between rows", b)
		}
	}
	p := mustPages(t, size, pageBytes)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := make([]float64, rowWords)
		for v := 1; v <= versions; v++ {
			for k := range row {
				row[k] = float64(v)
			}
			for r := 0; r < rows; r++ {
				p.WriteFloat64s(r*rowWords, row)
			}
		}
	}()
	type snap struct {
		data []byte
		gen  uint64
	}
	var snaps []snap
	check := func() {
		ids, data, gen := p.Snapshot(0, nil)
		if len(ids) != p.NumPages() || len(data) != size {
			t.Fatalf("Snapshot(0) has %d pages in %d bytes, want %d in %d", len(ids), len(data), p.NumPages(), size)
		}
		for r := 0; r < rows; r++ {
			first := binary.NativeEndian.Uint64(data[r*rowWords*8:])
			for k := 1; k < rowWords; k++ {
				if w := binary.NativeEndian.Uint64(data[(r*rowWords+k)*8:]); w != first {
					t.Fatalf("row %d holds two versions: word 0 is %v, word %d is %v",
						r, math.Float64frombits(first), k, math.Float64frombits(w))
				}
			}
		}
		snaps = append(snaps, snap{data, gen})
		if len(snaps) > keep {
			snaps = snaps[1:]
		}
	}
	for p.Float64(rows*rowWords-1) != versions {
		check()
	}
	wg.Wait()
	check()
	region := p.View()
	for _, s := range snaps {
		dirty := map[int]bool{}
		for _, id := range p.DirtySince(s.gen) {
			dirty[id] = true
		}
		for i := 0; i < p.NumPages(); i++ {
			lo, hi := i*pageBytes, min((i+1)*pageBytes, size)
			if !dirty[i] && !bytes.Equal(s.data[lo:hi], region[lo:hi]) {
				t.Fatalf("page %d, clean since the snapshot's watermark %d, differs from the region", i, s.gen)
			}
		}
	}
}

// TestSnapshotCopiesIntoBuffer: a whole-region Snapshot copies into a
// buffer of the region's length and returns it as the data; a buffer of any
// other length, and any buffer handed to a delta, is left untouched.
func TestSnapshotCopiesIntoBuffer(t *testing.T) {
	const size, pageBytes = 10 * 64, 64
	p := mustPages(t, size, pageBytes)
	for w := 0; w < size/8; w++ {
		p.SetFloat64(w, float64(w+1))
	}
	buf := make([]byte, size)
	ids, data, gen := p.Snapshot(0, buf)
	if len(ids) != p.NumPages() || &data[0] != &buf[0] || !bytes.Equal(data, p.View()) {
		t.Fatalf("Snapshot(0) with a %d-byte buffer: %d pages, shares the buffer %v, equals the region %v",
			size, len(ids), &data[0] == &buf[0], bytes.Equal(data, p.View()))
	}
	p.SetFloat64(0, -1)
	for _, n := range []int{size - 8, size + 8, 8} {
		other := make([]byte, n)
		for _, since := range []uint64{0, gen} {
			_, data, _ := p.Snapshot(since, other)
			if &data[0] == &other[0] || !bytes.Equal(other, make([]byte, n)) {
				t.Fatalf("Snapshot(%d) used a %d-byte buffer for a %d-byte region", since, n, size)
			}
		}
	}
	if _, data, _ := p.Snapshot(gen, buf); &data[0] == &buf[0] {
		t.Fatal("a delta snapshot copied into the buffer")
	}

	region := p.View()
	if got := p.Release(); &got[0] != &region[0] || p.Len() != 0 {
		t.Fatalf("Release returned another array or left %d bytes in the region", p.Len())
	}
}
