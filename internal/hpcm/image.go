package hpcm

// The state image: the one format a process's transferable state takes,
// whether it streams to an initialized process on another host or is saved
// to a checkpoint store. Four operations, and every state path uses them:
// collect (registry → image), stream (sendState, then sendLazy over the
// chunk table), receive (receiveState, then savedState.restore in the
// background) and marshal / unmarshal (the same bytes in one buffer).
//
// An image is a header followed by raw segment bytes. The header is JSON,
// {Label, Memory, Segments: [{Name, Lazy, Size, Enc}]}: the poll-point label
// (execution state), the resident memory the destination attaches with, and
// the inventory. Inventory order is the order of the bytes: eager segments by
// name, then lazy segments smallest first with the name as tie-break — the
// quickly restored variables are the ones a resumed application Awaits
// first. Segment data is whatever encodeState produced, and Enc says which:
// "raw" ([]byte and paged regions), "f64le" / "i64le" ([]float64 / []int64
// as the producer's memory holds them — "…be" from a big-endian producer) —
// all three by reference, nothing encoded — or "gob" for everything else.
// The image never looks inside the data. JSON rather than gob because gob's
// bytes depend on which types the process encoded before, and a checkpoint's
// bytes should depend on the checkpoint alone.
//
// On the wire (tags in migrate.go), around the commit point:
//
//	source → tagHeader    the header, one raw message
//	source → tagEager     the eager segments, by reference, as the fragments
//	                      of one message (none if there are no eager bytes)
//	dest   → tagResumed   empty: attached and resuming; else the error text
//	  -- commit: the destination owns the process and is already running --
//	source → tagLazy      the lazy segments in inventory order, each cut
//	                      into raw chunks of at most Options.ChunkBytes
//	dest   → tagRestored  empty: all lazy state restored; else the error text
//
// No message describes a chunk: the receiver cuts the stream by the sizes
// the header declared, a zero-length segment sends nothing, and a chunk
// that overruns its segment fails the restoration.
//
// A live migration puts precopy rounds in front of that, each an image of its
// own on the same two tags: a header with Round r ≥ 1 (omitted when zero)
// and one eager segment, the paged region. Round 1 carries every page, so
// it is the whole region as an ordinary "raw" segment, one fragment: the
// source's copy of it (livemig's Snapshot), which nothing on the source
// touches again. A later round is a page delta — a "raw" segment with
// Pages{Bytes, IDs}, meaning only the pages IDs (ascending, Bytes each, the
// region's last one possibly short) of this Size-byte region travel, one
// fragment a page — and the receiver patches them into the region earlier
// rounds started. The handover image (Round 0) ends the stream: after
// precopy its inventory closes with one more delta, the pages dirtied since
// the last round, which completes the region; those fragments are windows
// of the source's region, by reference like every collected segment. A
// delta is eager whatever the application registered, so the region is
// whole when the destination resumes. A header that says Cancel instead
// ends the stream with nothing to resume: the receiver drops what it has and
// exits. Stop-and-copy is the stream whose first header has Round 0.
//
// What the receiver keeps: a whole segment the source has given up — a
// precopy round's copy, which nothing on the source touches again, or a
// lazy segment of the handover image, which streams after the commit — is
// handed over: while its fragments are consecutive windows of one array
// holding the whole segment, that array becomes the segment's memory. Every
// other fragment, a broken run's included, is copied once, into a buffer the
// inventory sized or into the region a delta patches: eager state arrives
// before the commit, while the source may still resume.
//
// In a checkpoint: one magic byte, the header's length as a big-endian
// uint32, the header, then every segment's bytes in inventory order.
// Restoring copies them once, so restored state never aliases the store's
// copy. A checkpoint holds one whole image: it never carries Round, Cancel
// or a delta, and unmarshalImage rejects a header that does. There is no
// version negotiation on either carrier: both ends of a stream are the same
// binary, and a checkpoint never outlives the run that wrote it — any
// other magic byte is rejected, not interpreted. The same
// rule holds per segment: parseHeader rejects an Enc outside the vocabulary
// or a typed array that is not whole elements, and decodeState rejects a
// segment whose Enc is not the one the registered variable's type collects
// to on this host. Nothing is converted, reinterpreted or byte-swapped.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

const imageMagic = 0xC5

// segment is one registered variable's serialised state. Data is absent
// from the header and travels behind it — for a page delta, as parts.
type segment struct {
	Name  string
	Lazy  bool
	Size  int
	Enc   string
	Pages *pageDelta `json:",omitempty"`
	Data  []byte     `json:"-"`
	parts [][]byte   // a delta's page images, parts[k] that of Pages.IDs[k]
}

// pageDelta marks a segment as the listed pages of its region, not the whole.
type pageDelta struct {
	Bytes int
	IDs   []int
}

var firstPage = []int{0}

// image is a process's transferable state. Decoded from a header alone, its
// segments are the inventory: sizes without data.
type image struct {
	Label    string
	Memory   int64
	Round    int  `json:",omitempty"`
	Cancel   bool `json:",omitempty"`
	Segments []segment
}

// collect serialises the registered memory state in inventory order. skip
// names one entry to leave out — the live path ships its paged region as
// page deltas and must not duplicate it whole in the handover image;
// everything else passes "".
func (r *registry) collect(skip string) (image, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	img := image{Segments: make([]segment, 0, len(r.entries))}
	for name, e := range r.entries {
		if skip != "" && name == skip {
			continue
		}
		data, err := encodeState(e.ptr)
		if err != nil {
			return image{}, fmt.Errorf("hpcm: collect %q: %w", name, err)
		}
		img.Segments = append(img.Segments, segment{Name: name, Lazy: e.lazy, Size: len(data), Enc: encOf(e.ptr), Data: data})
	}
	sort.Slice(img.Segments, func(i, j int) bool {
		a, b := &img.Segments[i], &img.Segments[j]
		if a.Lazy != b.Lazy {
			return b.Lazy
		}
		if a.Lazy && a.Size != b.Size {
			return a.Size < b.Size
		}
		return a.Name < b.Name
	})
	return img, nil
}

// collect freezes this incarnation's state at a poll-point: the registered
// memory state, the label, and the memory size SetMemory last reported.
func (c *Context) collect(label, skip string) (image, error) {
	img, err := c.state.collect(skip)
	img.Label, img.Memory = label, c.proc.memory.Load()
	return img, err
}

// parseHeader decodes and checks a header. A header may be input from
// outside the program (a checkpoint file): sizes must be non-negative, names
// unique, every Enc one of the vocabulary, a typed array whole elements, and
// a delta's pages positive in size, raw, ascending and inside the region, so
// no later step has to trust them.
func parseHeader(hdr []byte) (image, error) {
	var img image
	if err := json.Unmarshal(hdr, &img); err != nil {
		return image{}, fmt.Errorf("hpcm: state image header: %w", err)
	}
	seen := make(map[string]bool, len(img.Segments))
	for _, s := range img.Segments {
		if s.Size < 0 || seen[s.Name] {
			return image{}, fmt.Errorf("hpcm: state image header: bad or duplicate segment %q (%d bytes)", s.Name, s.Size)
		}
		seen[s.Name] = true
		switch s.Enc {
		case encGob, encRaw:
		case "f64le", "f64be", "i64le", "i64be":
			if s.Size%8 != 0 {
				return image{}, fmt.Errorf("hpcm: state image header: %s segment %q is %d bytes, not whole elements", s.Enc, s.Name, s.Size)
			}
		default:
			return image{}, fmt.Errorf("hpcm: state image header: segment %q has unknown encoding %q", s.Name, s.Enc)
		}
		if d := s.Pages; d != nil {
			if d.Bytes <= 0 || s.Enc != encRaw {
				return image{}, fmt.Errorf("hpcm: state image header: delta of segment %q has %d-byte %s pages", s.Name, d.Bytes, s.Enc)
			}
			for k, id := range d.IDs {
				if id < 0 || id > (s.Size-1)/d.Bytes || k > 0 && id <= d.IDs[k-1] {
					return image{}, fmt.Errorf("hpcm: state image header: delta of segment %q (%d bytes): page %d out of order or range", s.Name, s.Size, id)
				}
			}
		}
	}
	return img, nil
}

// chunks cuts the eager or the lazy segments, in inventory order, into
// windows of at most size bytes. Nothing is copied.
func (img *image) chunks(lazy bool, size int) [][]byte {
	var table [][]byte
	for _, s := range img.Segments {
		if s.Lazy != lazy {
			continue
		}
		if s.Pages != nil {
			table = append(table, s.parts...)
			continue
		}
		for off := 0; off < s.Size; off += size {
			table = append(table, s.Data[off:min(off+size, s.Size)])
		}
	}
	return table
}

// sendState streams the pre-commit half: the header, then the eager
// segments whole, as the fragments of one message.
func (img *image) sendState(inter *mpi.Comm) error {
	hdr, err := json.Marshal(img)
	if err == nil {
		err = inter.Send(hdr, 0, tagHeader)
	}
	if err != nil {
		return fmt.Errorf("hpcm: execution state transfer: %w", err)
	}
	if eager := img.chunks(false, math.MaxInt); len(eager) > 0 {
		if err := inter.SendParts(eager, 0, tagEager); err != nil {
			return fmt.Errorf("hpcm: eager state transfer: %w", err)
		}
	}
	return nil
}

// sendLazy streams the post-commit half: the lazy segments' bytes as raw
// chunks, each a one-fragment window of the chunk table — nothing encoded,
// boxed or allocated per chunk. hotalloc fails the tree if that stops being
// true.
//
//hot:path
func sendLazy(inter *mpi.Comm, chunks [][]byte) error {
	for i := range chunks {
		if err := inter.SendParts(chunks[i:i+1], 0, tagLazy); err != nil {
			return err
		}
	}
	return nil
}

// receiveState is the initialized process's side of every sendState of one
// migration: it takes images until the one that hands over (Round 0) and
// returns that image's inventory with a savedState holding every eager
// segment — a region the rounds assembled included — complete. A stream the
// source cancelled returns no state and no error.
func receiveState(clock vclock.Clock, parent *mpi.Comm) (image, *savedState, error) {
	saved := newSavedState(clock, image{})
	saved.from = parent
	for {
		var hdr []byte
		if _, err := parent.Recv(&hdr, 0, tagHeader); err != nil {
			return image{}, nil, fmt.Errorf("hpcm: receive execution state: %w", err)
		}
		img, err := parseHeader(hdr)
		if err != nil || img.Cancel {
			return image{}, nil, err
		}
		saved.declare(img)
		if err := saved.restore(parent, img, false); err != nil {
			return image{}, nil, fmt.Errorf("hpcm: receive eager state: %w", err)
		}
		if img.Round == 0 {
			return img, saved, nil
		}
	}
}

// restore is the receiving side of both halves: it cuts the fragments
// arriving on tagEager or tagLazy into the image's eager or lazy segments by
// the sizes the inventory declares, completing each segment as its last
// byte arrives. A whole segment the source gave up — a precopy round's
// snapshot, or lazy state, which streams after the commit — is adopted
// while its fragments are consecutive windows of one array that holds it
// all. Anything else, a broken run included, is copied once, into a buffer
// sized from the inventory or, for a delta, page by page into the region
// earlier rounds started. A fragment that overruns its segment, or its
// page, is an error.
func (s *savedState) restore(parent *mpi.Comm, img image, lazy bool) error {
	tag := tagEager
	if lazy {
		tag = tagLazy
	}
	var frags [][]byte
	for _, seg := range img.Segments {
		if seg.Lazy != lazy {
			continue
		}
		// A whole segment is cut like a delta of one page: all of it.
		d := pageDelta{Bytes: seg.Size, IDs: firstPage}
		if seg.Pages != nil {
			d = *seg.Pages
		}
		adopt := seg.Pages == nil && (img.Round > 0 || lazy)
		var buf []byte // allocated at the first copy, unless adopted
		for _, id := range d.IDs {
			lo := id * d.Bytes
			hi := min(lo+d.Bytes, seg.Size)
			for lo < hi {
				if len(frags) == 0 {
					if _, err := parent.Recv(&frags, 0, tag); err != nil {
						return err
					}
					continue
				}
				frag := frags[0]
				frags = frags[1:]
				switch {
				case len(frag) > hi-lo:
					return fmt.Errorf("hpcm: a %d-byte chunk overruns segment %q (%d bytes)", len(frag), seg.Name, seg.Size)
				case adopt && len(frag) > 0 && (buf == nil && cap(frag) >= seg.Size || buf != nil && &frag[0] == &buf[lo]):
					if buf == nil {
						buf = frag[:seg.Size:seg.Size]
					}
					lo += len(frag)
				default:
					if buf == nil || adopt { // the first copy, or the run broke
						fresh := s.buffer(seg)
						copy(fresh[:lo], buf) // what the run brought, if any
						buf, adopt = fresh, false
					}
					lo += copy(buf[lo:], frag)
				}
			}
		}
		if buf == nil {
			buf = s.buffer(seg) // no byte arrived: empty, or a delta of no pages
		}
		s.completeLazy(seg.Name, buf)
	}
	return nil
}

// statusText is a handshake's payload: empty for success, anything else is
// the error text.
func statusText(err error) []byte {
	if err == nil {
		return nil
	}
	return []byte(err.Error())
}

// recvStatus waits for a handshake and returns the peer's refusal, if any.
func recvStatus(c *mpi.Comm, tag int) error {
	var text []byte
	if _, err := c.Recv(&text, 0, tag); err != nil {
		return err
	}
	if len(text) > 0 {
		return errors.New(string(text))
	}
	return nil
}

// marshal writes the image into one exactly-sized buffer.
func (img *image) marshal() ([]byte, error) {
	hdr, err := json.Marshal(img)
	if err != nil {
		return nil, err
	}
	size := 5 + len(hdr)
	for _, s := range img.Segments {
		size += s.Size
	}
	buf := append(make([]byte, 0, size), imageMagic)
	buf = append(binary.BigEndian.AppendUint32(buf, uint32(len(hdr))), hdr...)
	for _, s := range img.Segments {
		buf = append(buf, s.Data...)
	}
	return buf, nil
}

// unmarshalImage is the checkpoint's receiveState: the inventory and a
// savedState with every segment complete. It returns an error — never
// panics, never allocates from a declared size — unless the header is
// intact and its sizes account for exactly the bytes present, and it copies
// those bytes, so the restored state does not alias data.
func unmarshalImage(data []byte) (image, *savedState, error) {
	if len(data) < 5 || data[0] != imageMagic {
		return image{}, nil, errors.New("hpcm: not a state image")
	}
	n := int64(binary.BigEndian.Uint32(data[1:5]))
	if n > int64(len(data)-5) {
		return image{}, nil, errors.New("hpcm: state image header truncated")
	}
	img, err := parseHeader(data[5 : 5+n])
	if err != nil {
		return image{}, nil, err
	}
	if img.Round != 0 || img.Cancel {
		return image{}, nil, errors.New("hpcm: a checkpoint holds one whole image, not a round of a stream")
	}
	body := data[5+n:]
	left := len(body)
	for _, s := range img.Segments {
		if s.Pages != nil {
			return image{}, nil, fmt.Errorf("hpcm: a checkpoint holds one whole image, segment %q is a delta", s.Name)
		}
		if s.Size > left {
			return image{}, nil, errors.New("hpcm: state image truncated")
		}
		left -= s.Size
	}
	if left != 0 {
		return image{}, nil, fmt.Errorf("hpcm: state image has %d trailing bytes", left)
	}
	body = append([]byte(nil), body...)
	saved := newSavedState(nil, img) // complete: nothing awaits
	for _, s := range img.Segments {
		saved.completeLazy(s.Name, body[:s.Size:s.Size])
		body = body[s.Size:]
	}
	return img, saved, nil
}
