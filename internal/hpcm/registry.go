package hpcm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"autoresched/internal/livemig"
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
	cond  *sync.Cond
	slots map[string]slot
	err   error // the inbound stream died; missing segments never arrive
}

type slot struct {
	data  []byte
	ready bool
}

// newSavedState declares every segment of img's inventory, none arrived.
func newSavedState(img image) *savedState {
	s := &savedState{slots: make(map[string]slot, len(img.Segments))}
	s.cond = sync.NewCond(&s.mu)
	for _, seg := range img.Segments {
		s.slots[seg.Name] = slot{}
	}
	return s
}

// completeLazy installs a fully received segment.
func (s *savedState) completeLazy(name string, data []byte) {
	s.mu.Lock()
	s.slots[name] = slot{data: data, ready: true}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail marks the inbound state stream dead: segments not yet complete will
// never arrive, and awaiters unblock with err.
func (s *savedState) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// awaitLazy blocks until the named segment has fully arrived, or the stream
// fails. A name the image never declared is an error at once.
func (s *savedState) awaitLazy(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		sl, declared := s.slots[name]
		switch {
		case !declared:
			return nil, fmt.Errorf("the state image has no segment %q", name)
		case sl.ready:
			return sl.data, nil
		case s.err != nil:
			return nil, s.err
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
		data, err := r.saved.awaitLazy(name)
		if err == nil {
			err = decodeState(data, ptr)
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
	data, err := r.saved.awaitLazy(name) // outside r.mu: the stream may take a while
	if err != nil {
		return fmt.Errorf("hpcm: await %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.restored {
		return nil
	}
	if err := decodeState(data, e.ptr); err != nil {
		return fmt.Errorf("hpcm: restore %q: %w", name, err)
	}
	e.restored = true
	return nil
}

// pagesRegion returns the process's paged region if exactly one is
// registered. Live precopy only engages for that shape; zero or several
// paged regions migrate classically.
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
	if count != 1 {
		return "", nil
	}
	return name, pages
}

// encodeState serialises one registered variable. Raw byte regions move
// without re-encoding — the source is paused at its poll-point and never
// touches the state again, so sharing the backing array is safe and keeps
// collection of large memory images cheap (HPCM's data collection likewise
// ships raw memory blocks).
func encodeState(ptr any) ([]byte, error) {
	if bp, ok := ptr.(*[]byte); ok {
		return *bp, nil
	}
	// A paged region serialises as its flat image, so checkpoints, classic
	// migration and precopy fallback all work on Pages unchanged.
	if pg, ok := ptr.(*livemig.Pages); ok {
		return pg.Bytes(), nil
	}
	return gobEncode(ptr)
}

// decodeState mirrors encodeState on restoration.
func decodeState(data []byte, ptr any) error {
	if bp, ok := ptr.(*[]byte); ok {
		*bp = data
		return nil
	}
	if pg, ok := ptr.(*livemig.Pages); ok {
		return pg.Load(data)
	}
	return gobDecode(data, ptr)
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
