package hpcm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// registry is the memory-state table HPCM's precompiler would have
// generated: named variables, eager or lazy, with their serialised forms for
// collection and restoration.
type registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	// saved holds incoming state on a resumed incarnation: eager segments
	// are present at creation, lazy ones arrive from the background stream.
	saved *savedState
}

type entry struct {
	ptr      any
	lazy     bool
	restored bool
}

// savedState is the receiving end of a state image (image.go): one slot per
// segment, complete on arrival for eager state and checkpoints, completed by
// the background stream for lazy state.
type savedState struct {
	mu    sync.Mutex
	cond  *vclock.Cond
	slots map[string]slot
	err   error     // the inbound stream died; missing segments never arrive
	from  *mpi.Comm // the stream's communicator; nil for a checkpoint
}

type slot struct {
	enc   string // how the inventory says data is encoded
	data  []byte
	ready bool
}

// newSavedState declares every segment of img's inventory, none arrived;
// its awaiters run on clock.
func newSavedState(clock vclock.Clock, img image) *savedState {
	s := &savedState{slots: make(map[string]slot, len(img.Segments))}
	s.cond = vclock.NewCond(clock, &s.mu)
	s.declare(img)
	return s
}

// declare adds img's inventory, each segment yet to arrive. What an earlier
// image of the stream delivered under the same name stays in the slot: the
// region a later round's delta goes on patching.
func (s *savedState) declare(img image) {
	s.mu.Lock()
	for _, seg := range img.Segments {
		s.slots[seg.Name] = slot{enc: seg.Enc, data: s.slots[seg.Name].data}
	}
	s.mu.Unlock()
}

// buffer is the memory seg's bytes are copied into: its own, or for a
// delta the region earlier rounds started.
func (s *savedState) buffer(seg segment) []byte {
	s.mu.Lock()
	region := s.slots[seg.Name].data
	s.mu.Unlock()
	if seg.Pages == nil || len(region) != seg.Size {
		return make([]byte, seg.Size)
	}
	return region
}

// completeLazy installs a fully received segment.
func (s *savedState) completeLazy(name string, data []byte) {
	s.mu.Lock()
	sl := s.slots[name]
	sl.data, sl.ready = data, true
	s.slots[name] = sl
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail marks the inbound state stream dead: segments not yet complete will
// never arrive, and awaiters unblock with err — the restore receiving them
// too, through its communicator.
func (s *savedState) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.from != nil {
		s.from.Disconnect(err)
	}
}

// awaitLazy blocks until the named segment has fully arrived, or the stream
// fails. A name the image never declared is an error at once.
func (s *savedState) awaitLazy(name string) (slot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		sl, declared := s.slots[name]
		switch {
		case !declared:
			return slot{}, fmt.Errorf("the state image has no segment %q", name)
		case sl.ready:
			return sl, nil
		case s.err != nil:
			return slot{}, s.err
		}
		s.cond.Wait()
	}
}

func newRegistry(saved *savedState) *registry {
	return &registry{entries: make(map[string]*entry), saved: saved}
}

// register adds (or re-binds, on resume) a state variable. On a resumed
// incarnation, eager state restores immediately; lazy state restores when
// awaited (or when the stream completes first).
func (r *registry) register(name string, ptr any, lazy bool) error {
	if ptr == nil {
		return fmt.Errorf("hpcm: register %q with nil pointer", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.entries[name]; exists {
		return fmt.Errorf("hpcm: state %q already registered", name)
	}
	e := &entry{ptr: ptr, lazy: lazy}
	r.entries[name] = e
	if r.saved == nil {
		return nil
	}
	if !lazy {
		// Eager segments arrived before the incarnation started: no wait.
		sl, err := r.saved.awaitLazy(name)
		if err == nil {
			err = decodeState(sl, ptr)
		}
		if err != nil {
			return fmt.Errorf("hpcm: restore %q: %w", name, err)
		}
		e.restored = true
	}
	return nil
}

// await blocks until the named lazy entry is restored into its pointer. On
// a fresh incarnation there is nothing to wait for.
func (r *registry) await(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("hpcm: await of unregistered state %q", name)
	}
	if r.saved == nil {
		return nil
	}
	sl, err := r.saved.awaitLazy(name) // outside r.mu: the stream may take a while
	if err != nil {
		return fmt.Errorf("hpcm: await %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.restored {
		return nil
	}
	if err := decodeState(sl, e.ptr); err != nil {
		return fmt.Errorf("hpcm: restore %q: %w", name, err)
	}
	e.restored = true
	return nil
}

// pagesRegion returns the process's paged region if exactly one is
// registered and it is not empty. Live precopy only engages for that shape;
// zero or several paged regions migrate classically.
func (r *registry) pagesRegion() (string, *livemig.Pages) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var (
		name  string
		pages *livemig.Pages
		count int
	)
	for n, e := range r.entries {
		if pg, ok := e.ptr.(*livemig.Pages); ok {
			name, pages = n, pg
			count++
		}
	}
	if count != 1 || pages.Len() == 0 {
		return "", nil
	}
	return name, pages
}

// A segment's Enc: how its bytes are to be read. Typed arrays carry the
// producer's byte order in the name, so another host rejects them instead of
// reading them wrong.
const (
	encGob = "gob"
	encRaw = "raw"
)

var (
	encF64 = "f64" + nativeOrder
	encI64 = "i64" + nativeOrder

	nativeOrder = func() string {
		if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
			return "le"
		}
		return "be"
	}()
)

// encOf is the encoding ptr's type collects to — and the only one it
// restores from — on this host.
func encOf(ptr any) string {
	switch ptr.(type) {
	case *[]byte, *livemig.Pages:
		return encRaw
	case *[]float64:
		return encF64
	case *[]int64:
		return encI64
	}
	return encGob
}

// encodeState serialises one registered variable. Byte regions and numeric
// arrays move without encoding: the segment's data is the slice's own
// backing array. The source is paused at its poll-point and does not touch
// the state until the transfer is over, and a checkpoint marshals (copies)
// before the process continues, so sharing is safe and collection costs
// nothing however large the array (HPCM's data collection likewise ships
// raw memory blocks). Gob is for the irregular remainder.
func encodeState(ptr any) ([]byte, error) {
	switch p := ptr.(type) {
	case *[]byte:
		return *p, nil
	case *[]float64:
		return bytesOf(*p), nil
	case *[]int64:
		return bytesOf(*p), nil
	case *livemig.Pages:
		// A paged region serialises as its flat image, by reference like the
		// arrays, so checkpoints, classic migration and precopy fallback all
		// work on Pages unchanged.
		return p.View(), nil
	}
	return gobEncode(ptr)
}

// decodeState mirrors encodeState on restoration: the application gets the
// received buffer itself, as the registered type. A segment encoded any
// other way than ptr's type collects here — another type, another byte
// order — is an error: nothing is reinterpreted or byte-swapped.
func decodeState(sl slot, ptr any) error {
	if want := encOf(ptr); sl.enc != want {
		return fmt.Errorf("the segment is %q, a %T restores from %q on this host", sl.enc, ptr, want)
	}
	switch p := ptr.(type) {
	case *[]byte:
		*p = sl.data
	case *[]float64:
		*p = wordsFrom[float64](sl.data)
	case *[]int64:
		*p = wordsFrom[int64](sl.data)
	case *livemig.Pages:
		return p.Load(sl.data)
	default:
		return gobDecode(sl.data, ptr)
	}
	return nil
}

// wordsFrom hands a typed segment to the application: the buffer itself when
// it is 8-byte aligned (a streamed segment is: restore allocates each its
// own, or adopts the array the source handed over with its lazy state), a
// copy when it is not (a checkpoint's segments sit at arbitrary offsets of
// one body buffer). Native order either way: the bytes move, the elements
// are never decoded.
func wordsFrom[T word](data []byte) []T {
	s, ok := wordsOf[T](data)
	if !ok {
		s = make([]T, len(data)/8)
		copy(bytesOf(s), data)
	}
	return s
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, ptr any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(ptr)
}
