// Package livemig is the live-migration engine layered between hpcm and
// mpi: a paged memory model with per-page generation counters, a dirty-page
// tracker, and an iterative precopy round loop. Round 1 ships every page over
// the migration intercommunicator while the source keeps computing; rounds
// 2..N ship only the pages dirtied since the previous round; when the dirty
// set stops shrinking (configurable convergence ratio / max rounds) the
// loop asks the middleware to freeze the process at its next poll-point
// and ship the residual delta plus execution state — or to fall back to the
// classic stop-and-copy migration when precopy cannot converge.
//
// The package deliberately knows nothing about hpcm or mpi: hpcm imports
// livemig (for the page model and the round loop) and hands Precopy a
// SendFunc that puts a round on its own wire, so the engine is testable
// without a middleware around it.
package livemig

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// DefaultPageBytes is the page granularity when a Pages region is created
// without an explicit size.
const DefaultPageBytes = 4096

// Pages is a contiguous byte region carved into fixed-size pages, each with
// a generation counter bumped on every mutating write. Workloads write
// through its API instead of into a raw []byte so the precopy rounds can
// ship only what actually changed. Writes are change-suppressed: storing a
// value equal to what the page already holds does not dirty it — an
// iterative solver's dirty rate therefore shrinks as it converges, which is
// exactly the signal the precopy convergence rule feeds on. Its words are
// in host byte order, like hpcm's typed segments: a row moves by copy.
//
// All methods are safe for concurrent use. Snapshot copies under the region
// lock (the whole region a run of pages per hold), so a transfer round
// observes a consistent generation watermark and owns its copy; View copies
// nothing and is for a reader that has stopped every writer.
type Pages struct {
	mu       sync.Mutex
	data     []byte // nil in an Unloaded region until Load
	size     int
	pageSize int
	gens     []uint64 // per-page generation of the last mutating write
	gen      uint64   // monotonic region generation counter
}

// NewPages allocates a zeroed region of size bytes with the given page
// size (DefaultPageBytes when pageBytes <= 0). size must be positive; the
// final page may be short when pageBytes does not divide size. A page holds
// whole float64 words: a word straddling two pages would dirty only one.
func NewPages(size, pageBytes int) (*Pages, error) {
	p, err := Unloaded(size, pageBytes)
	if err == nil {
		p.data = make([]byte, size)
	}
	return p, err
}

// Unloaded is NewPages without the memory: the region a transferred image
// is about to arrive for. Until Load installs that image, Len is zero and
// any read or write is the caller's error.
func Unloaded(size, pageBytes int) (*Pages, error) {
	if size <= 0 {
		return nil, fmt.Errorf("livemig: region size %d", size)
	}
	if pageBytes <= 0 {
		pageBytes = DefaultPageBytes
	}
	if pageBytes%8 != 0 {
		return nil, fmt.Errorf("livemig: page size %d is not a multiple of 8", pageBytes)
	}
	n := (size + pageBytes - 1) / pageBytes
	p := &Pages{
		size:     size,
		pageSize: pageBytes,
		gens:     make([]uint64, n),
		gen:      1,
	}
	// A fresh region is entirely "dirty since generation zero": round 1 of a
	// precopy (DirtySince(0)) must ship every page, including untouched ones.
	for i := range p.gens {
		p.gens[i] = 1
	}
	return p, nil
}

// Len returns the region size in bytes, zero for an Unloaded region.
func (p *Pages) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.data)
}

// PageSize returns the page granularity in bytes.
func (p *Pages) PageSize() int {
	if p == nil {
		return 0
	}
	return p.pageSize
}

// NumPages returns the page count.
func (p *Pages) NumPages() int {
	if p == nil {
		return 0
	}
	return len(p.gens)
}

// Gen returns the current region generation watermark. A page whose write
// happens after Gen() was read is reported by a later DirtySince(gen).
func (p *Pages) Gen() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// touch marks page i dirty at a fresh generation. Caller holds p.mu.
func (p *Pages) touch(i int) {
	p.gen++
	p.gens[i] = p.gen
}

// pageRange returns the byte bounds of page i. Caller holds p.mu.
func (p *Pages) pageRange(i int) (lo, hi int) {
	lo = i * p.pageSize
	hi = lo + p.pageSize
	if hi > len(p.data) {
		hi = len(p.data)
	}
	return lo, hi
}

// Float64 reads the float64 at word index i (byte offset 8*i).
func (p *Pages) Float64(i int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return math.Float64frombits(binary.NativeEndian.Uint64(p.data[8*i:]))
}

// SetFloat64 stores v at word index i, dirtying the page only when the bit
// pattern changes.
func (p *Pages) SetFloat64(i int, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	off := 8 * i
	bits := math.Float64bits(v)
	if binary.NativeEndian.Uint64(p.data[off:]) == bits {
		return
	}
	binary.NativeEndian.PutUint64(p.data[off:], bits)
	p.touch(off / p.pageSize)
}

// ReadFloat64s fills dst with the float64 words starting at word index i.
//
//hot:path
func (p *Pages) ReadFloat64s(i int, dst []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(bytesOf(dst), p.data[8*i:8*(i+len(dst))])
}

// WriteFloat64s stores vals starting at word index i in one locked pass,
// copying and dirtying only the page spans where a bit pattern changed.
//
//hot:path
func (p *Pages) WriteFloat64s(i int, vals []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := bytesOf(vals)
	for off := 8 * i; len(src) > 0; {
		n := min(p.pageSize-off%p.pageSize, len(src))
		if dst := p.data[off : off+n]; !bytes.Equal(dst, src[:n]) {
			copy(dst, src)
			p.touch(off / p.pageSize)
		}
		src, off = src[n:], off+n
	}
}

// bytesOf views s as its bytes, the package's only unsafe (no alignment rule).
func bytesOf(s []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// View returns the region's own memory, not a copy: what a reader that has
// stopped every writer — hpcm's state collection at a poll-point — ships by
// reference. It stays valid until the next Load.
func (p *Pages) View() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.data
}

// Load installs a transferred image as the region's memory, into an
// Unloaded region or in place of the current contents. The region adopts
// data, its capacity clipped so that no row access runs past the region:
// the caller hands the slice over and must not write to it again.
// Every page is marked dirty at a fresh generation: a later migration away
// from this incarnation must ship everything again.
func (p *Pages) Load(data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(data) != p.size {
		return fmt.Errorf("livemig: load %d bytes into region of %d", len(data), p.size)
	}
	p.data = data[:len(data):len(data)]
	p.gen++
	for i := range p.gens {
		p.gens[i] = p.gen
	}
	return nil
}

// Release hands the region's memory to the caller and leaves it Unloaded.
func (p *Pages) Release() (data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	data, p.data = p.data, nil
	return data
}

// DirtySince returns the pages written after generation gen, sorted.
func (p *Pages) DirtySince(gen uint64) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirtySinceLocked(gen)
}

// dirtyCount is len(DirtySince(gen)) without building the list.
func (p *Pages) dirtyCount(gen uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.countSinceLocked(gen)
}

func (p *Pages) countSinceLocked(gen uint64) int {
	n := 0
	for _, g := range p.gens {
		if g > gen {
			n++
		}
	}
	return n
}

func (p *Pages) dirtySinceLocked(gen uint64) []int {
	n := p.countSinceLocked(gen)
	if n == 0 { // nil, not empty: a page delta's header encodes the ids
		return nil
	}
	ids := make([]int, 0, n)
	for i, g := range p.gens { // ascending i: ids is sorted as built
		if g > gen {
			ids = append(ids, i)
		}
	}
	return ids
}

// snapshotRun is what a whole-region Snapshot copies per lock hold.
const snapshotRun = 256 << 10

// Snapshot atomically collects one precopy round's payload: the pages
// dirtied after since, a copy of their contents back to back (page ids[k]
// at k×PageSize, only the region's last page short), and the region
// generation watermark the copy is consistent with. The caller owns the
// copy; pages written after gen show up in the next DirtySince(gen). A delta
// (since > 0) is copied under one hold of the lock. The whole region is
// copied into buf if it has the region's length, a run of pages per hold,
// then under a last hold every page written since the first run again.
func (p *Pages) Snapshot(since uint64, buf []byte) (ids []int, data []byte, gen uint64) {
	if since > 0 {
		p.mu.Lock()
		ids = p.dirtySinceLocked(since)
		data = make([]byte, 0, len(ids)*p.pageSize)
		for _, id := range ids {
			lo, hi := p.pageRange(id)
			data = append(data, p.data[lo:hi]...)
		}
		gen = p.gen
		p.mu.Unlock()
		return ids, data, gen
	}
	mark := p.Gen()
	if data = buf; len(data) != p.size {
		data = make([]byte, p.size)
	}
	run := max(1, snapshotRun/p.pageSize) * p.pageSize
	for lo := 0; lo < p.size; lo += run {
		p.mu.Lock()
		copy(data[lo:], p.data[lo:min(lo+run, p.size)])
		p.mu.Unlock()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, g := range p.gens {
		if g > mark {
			lo, hi := p.pageRange(i)
			copy(data[lo:hi], p.data[lo:hi])
		}
	}
	return p.dirtySinceLocked(0), data, p.gen
}
