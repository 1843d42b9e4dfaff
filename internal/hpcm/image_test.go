package hpcm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/image.golden from the current format")

const (
	// Not a multiple of 8: chunk boundaries fall inside array elements.
	testChunk = 1<<10 - 4
	testMem   = 48 << 20
)

// stateValues is a deep copy of the one registered state set the carrier
// tests move: an eager struct, a raw []byte, a zero-length lazy blob, a lazy
// blob of 3.5 chunks, typed arrays — lazy, eager, of 3.5 chunks, nil and
// zero-length, of both element types — and (second row) a paged region.
type stateValues struct {
	Eager struct {
		Step    int
		Name    string
		Weights [3]float64
	}
	Raw, Empty, Bulk, Pages []byte
	Floats                  [5][]float64 // grid (lazy), hot (eager), wide (lazy, 3.5 chunks), nil, zero-length
	Ints                    [3][]int64   // tree (lazy), nil, zero-length
}

var (
	floatNames = [5]string{"grid", "hot", "wide", "nilf", "zerof"}
	intNames   = [3]string{"tree", "nili", "zeroi"}
)

// sameBits compares by bit pattern: NaN payloads and the sign of zero count.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func (v stateValues) equal(w stateValues) bool {
	for i := range v.Floats {
		if !sameBits(v.Floats[i], w.Floats[i]) {
			return false
		}
	}
	for i := range v.Ints {
		if !slices.Equal(v.Ints[i], w.Ints[i]) {
			return false
		}
	}
	return v.Eager == w.Eager && bytes.Equal(v.Raw, w.Raw) && bytes.Equal(v.Empty, w.Empty) &&
		bytes.Equal(v.Bulk, w.Bulk) && bytes.Equal(v.Pages, w.Pages)
}

func (v stateValues) clone() stateValues {
	w := v
	w.Raw, w.Empty, w.Bulk = bytes.Clone(v.Raw), bytes.Clone(v.Empty), bytes.Clone(v.Bulk)
	for i := range v.Floats {
		w.Floats[i] = slices.Clone(v.Floats[i])
	}
	for i := range v.Ints {
		w.Ints[i] = slices.Clone(v.Ints[i])
	}
	return w
}

func pattern(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + salt)
	}
	return b
}

// hardFloats is every float64 a codec could get wrong — a NaN with a
// payload, both zeros, both infinities, the subnormal extremes — padded to n
// elements with seeded random bit patterns.
func hardFloats(n int, seed int64) []float64 {
	f := []float64{
		math.Float64frombits(0x7FF8_0000_DEAD_BEEF), math.Float64frombits(0xFFF0_0000_0000_0001),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000F_FFFF_FFFF_FFFF),
		math.MaxFloat64, 1.0 / 3,
	}
	for rng := rand.New(rand.NewSource(seed)); len(f) < n; {
		f = append(f, math.Float64frombits(rng.Uint64()))
	}
	return f
}

// stateMain registers the state set. A fresh incarnation fills it, reports
// it on out and polls until it is moved; a resumed one awaits everything,
// reports what arrived, and then scribbles over its by-reference regions —
// which must not reach the checkpoint it was restored from.
func stateMain(paged bool, out chan<- stateValues) Main {
	return func(ctx *Context) error {
		var v stateValues
		pages, err := livemig.NewPages(32*64, 64)
		if err != nil {
			return err
		}
		err = errors.Join(
			ctx.Register("eager", &v.Eager),
			ctx.Register("raw", &v.Raw),
			ctx.RegisterLazy("empty", &v.Empty),
			ctx.RegisterLazy("bulk", &v.Bulk),
		)
		lazy := []string{"empty", "bulk"}
		for i, name := range floatNames {
			if name == "hot" {
				err = errors.Join(err, ctx.Register(name, &v.Floats[i]))
				continue
			}
			err = errors.Join(err, ctx.RegisterLazy(name, &v.Floats[i]))
			lazy = append(lazy, name)
		}
		for i, name := range intNames {
			err = errors.Join(err, ctx.RegisterLazy(name, &v.Ints[i]))
			lazy = append(lazy, name)
		}
		if paged && err == nil {
			err = ctx.RegisterPages("pages", pages)
			lazy = append(lazy, "pages")
		}
		if err != nil {
			return err
		}
		report := func() {
			w := v.clone()
			if paged {
				w.Pages = pages.Bytes()
			}
			out <- w
		}
		if ctx.Resumed() {
			for _, name := range lazy {
				if err := ctx.Await(name); err != nil {
					return err
				}
			}
			report()
			for i := range v.Raw {
				v.Raw[i] = 0xFF
			}
			for i := range v.Bulk {
				v.Bulk[i] = 0xFF
			}
			for _, f := range v.Floats {
				for i := range f {
					f[i] = -1
				}
			}
			for _, n := range v.Ints {
				for i := range n {
					n[i] = -1
				}
			}
			return nil
		}
		v.Eager.Step, v.Eager.Name, v.Eager.Weights = 42, "jacobi", [3]float64{0.25, -1, 1e-9}
		v.Raw, v.Empty, v.Bulk = pattern(64, 1), []byte{}, pattern(testChunk*7/2, 2)
		v.Floats = [5][]float64{hardFloats(64, 1), hardFloats(16, 2), hardFloats((testChunk*7/2+7)/8, 3), nil, {}}
		v.Ints = [3][]int64{{math.MinInt64, math.MaxInt64, -1, 0, 1, 1 << 53}, nil, {}}
		for w := 0; w < 32*8; w++ {
			pages.SetFloat64(w, float64(w)+0.5)
		}
		ctx.SetMemory(testMem)
		report()
		for i := 0; i < 100000; i++ {
			ctx.Sleep(time.Millisecond)
			if err := ctx.PollPoint("moved"); err != nil {
				return err
			}
		}
		return errors.New("no migration")
	}
}

// TestOneStateSetBothCarriers moves the same registered state through the
// stream (a migration, stop-and-copy and live) and through the checkpoint
// image (the safety checkpoint that migration wrote, restored twice), and
// compares everything that arrives bit for bit with the source. The typed
// arrays arrive aligned on the stream (viewed) and at arbitrary offsets in
// the checkpoint (copied).
func TestOneStateSetBothCarriers(t *testing.T) {
	for _, row := range []struct {
		name string
		live *livemig.Config
	}{
		{"stop-and-copy", nil},
		{"paged-live", &livemig.Config{}},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock := vclock.NewAuto(vclock.Epoch)
			store := NewMemStore()
			mw, err := New(Options{
				Universe: mpi.NewUniverse(mpi.Options{
					Clock:     clock,
					Transport: modelTransport{clock, time.Millisecond, 100e6},
				}),
				ChunkBytes:  testChunk,
				Checkpoints: store,
				Live:        row.live,
			})
			if err != nil {
				t.Fatal(err)
			}
			paged := row.live != nil
			out := make(chan stateValues, 2)
			p, err := mw.Start("app", "ws1", stateMain(paged, out))
			if err != nil {
				t.Fatal(err)
			}
			p.Signal(Command{DestHost: "ws2"})
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			source := <-out
			if streamed := <-out; !streamed.equal(source) {
				t.Fatalf("streamed state differs from the source:\n got %+v\nwant %+v", streamed, source)
			}
			// The lazy stream is the arrays' own size, nothing added by a codec.
			// Live: the region went ahead in precopy rounds and ends as a delta
			// of the handover image, which the record's sizes do not count.
			lazyBytes := len(source.Bulk) + 8*(len(source.Floats[0])+len(source.Floats[2])+len(source.Ints[0]))
			if rec := p.Records()[0]; rec.LazyBytes != int64(lazyBytes) || (paged && rec.PrecopyRounds < 1) {
				t.Fatalf("lazy stream of %d bytes, want %d (paged region shipped ahead: %v): %+v", rec.LazyBytes, lazyBytes, paged, rec)
			}
			// The checkpoint is the same image in one buffer; restoring twice
			// also proves the first incarnation's scribbling stayed its own.
			for i := 0; i < 2; i++ {
				r, err := mw.Restore(store, "app", "ws3", stateMain(paged, out))
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Wait(); err != nil {
					t.Fatal(err)
				}
				if restored := <-out; !restored.equal(source) {
					t.Fatalf("restore %d differs from the source:\n got %+v\nwant %+v", i+1, restored, source)
				}
			}
		})
	}
}

// goldenImage has the inventory the carrier test started with — the same
// names, kinds and order — with literal payloads where the application's would be gob: gob's bytes
// depend on which types the test binary encoded earlier, a golden file must
// not.
func goldenImage() image {
	seg := func(name string, lazy bool, enc string, data []byte) segment {
		return segment{Name: name, Lazy: lazy, Size: len(data), Enc: enc, Data: data}
	}
	return image{Label: "moved", Memory: testMem, Segments: []segment{
		seg("eager", false, encGob, []byte("eager-struct")),
		seg("raw", false, encRaw, pattern(64, 1)),
		seg("empty", true, encRaw, nil),
		seg("grid", true, "f64le", pattern(80, 3)),
		seg("bulk", true, encRaw, pattern(testChunk*7/2, 2)),
	}}
}

func TestImageGolden(t *testing.T) {
	img := goldenImage()
	got, err := img.marshal()
	if err != nil {
		t.Fatal(err)
	}
	if cap(got) != len(got) {
		t.Fatalf("marshal buffer not exactly sized: len %d cap %d", len(got), cap(got))
	}
	golden := filepath.Join("testdata", "image.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the image format changed (%d bytes, golden %d); if that is deliberate, rerun with -update", len(got), len(want))
	}
	back, saved, err := unmarshalImage(want)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != img.Label || back.Memory != img.Memory || len(back.Segments) != len(img.Segments) {
		t.Fatalf("round trip = %+v", back)
	}
	for i, s := range back.Segments {
		o := img.Segments[i]
		if sl, err := saved.awaitLazy(s.Name); err != nil || s.Name != o.Name || s.Lazy != o.Lazy || s.Enc != o.Enc || sl.enc != o.Enc || !bytes.Equal(sl.data, o.Data) {
			t.Fatalf("segment %d = %q lazy=%v %s (%d bytes, %v), want %q lazy=%v %s (%d bytes)", i, s.Name, s.Lazy, s.Enc, len(sl.data), err, o.Name, o.Lazy, o.Enc, len(o.Data))
		}
	}
}

// TestCollectOrdersTheInventory: eager by name, then lazy smallest first
// with the name as tie-break — whatever order the registry's map iterates.
func TestCollectOrdersTheInventory(t *testing.T) {
	r := newRegistry(nil)
	z, a, big, small, tie := []byte("zz"), []byte("a"), make([]byte, 100), make([]byte, 5), make([]byte, 5)
	for _, reg := range []struct {
		name string
		ptr  *[]byte
		lazy bool
	}{{"z", &z, false}, {"big", &big, true}, {"a", &a, false}, {"tie", &tie, true}, {"small", &small, true}, {"skipped", &big, true}} {
		if err := r.register(reg.name, reg.ptr, reg.lazy); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		img, err := r.collect("skipped")
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, s := range img.Segments {
			order = append(order, s.Name)
		}
		if got := strings.Join(order, " "); got != "a z small tie big" {
			t.Fatalf("inventory = %q", got)
		}
	}
}

// frame builds checkpoint bytes around an arbitrary header.
func frame(hdr string, body []byte) []byte {
	buf := binary.BigEndian.AppendUint32([]byte{imageMagic}, uint32(len(hdr)))
	return append(append(buf, hdr...), body...)
}

// malformations is every way a checkpoint file can be wrong that
// unmarshalImage promises to answer with an error.
func malformations(t testing.TB) map[string][]byte {
	img := goldenImage()
	good, err := img.marshal()
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := int(binary.BigEndian.Uint32(good[1:5]))
	flip := func(i int, b byte) []byte {
		out := bytes.Clone(good)
		out[i] = b
		return out
	}
	return map[string][]byte{
		"empty":                   nil,
		"prefix only":             good[:3],
		"header cut":              good[:5+hdrLen/2],
		"body cut":                good[:len(good)-1],
		"trailing byte":           append(bytes.Clone(good), 0),
		"wrong magic":             flip(0, 'I'),
		"old gob checkpoint":      append([]byte{0x2c, 0xff, 0x81, 0x03, 0x01}, good...),
		"header length past data": flip(1, 0xFF),
		"header not json":         frame(`{"Label":`, nil),
		"negative size":           frame(`{"Segments":[{"Name":"a","Size":-1,"Enc":"raw"}]}`, nil),
		"size beyond the bytes":   frame(`{"Segments":[{"Name":"a","Size":4611686018427387904,"Enc":"raw"}]}`, []byte("abc")),
		"sizes overflow their sum": frame(`{"Segments":[{"Name":"a","Size":9223372036854775807,"Enc":"raw"},{"Name":"b","Size":9223372036854775807,"Enc":"raw"},{"Name":"c","Size":5,"Enc":"raw"}]}`,
			[]byte("abc")),
		"size not an int": frame(`{"Segments":[{"Name":"a","Size":1e30,"Enc":"raw"}]}`, nil),
		"duplicate name":  frame(`{"Segments":[{"Name":"a","Size":1,"Enc":"raw"},{"Name":"a","Size":2,"Enc":"raw"}]}`, []byte("abc")),
		"sizes fall short": frame(`{"Segments":[{"Name":"a","Size":1,"Enc":"raw"},{"Name":"b","Size":1,"Enc":"raw"}]}`,
			[]byte("abc")),
		"no encoding":           frame(`{"Segments":[{"Name":"a","Size":3}]}`, []byte("abc")),
		"unknown encoding":      frame(`{"Segments":[{"Name":"a","Size":8,"Enc":"f32le"}]}`, pattern(8, 0)),
		"array of 8k+3 bytes":   frame(`{"Segments":[{"Name":"a","Size":19,"Enc":"f64le"}]}`, pattern(19, 0)),
		"int array of 8k+3":     frame(`{"Segments":[{"Name":"a","Size":11,"Enc":"i64be"}]}`, pattern(11, 0)),
		"encoding not a string": frame(`{"Segments":[{"Name":"a","Size":8,"Enc":8}]}`, pattern(8, 0)),
		// Well-formed on a stream, never in a checkpoint.
		"a precopy round": frame(`{"Round":1,"Segments":[{"Name":"a","Size":3,"Enc":"raw"}]}`, []byte("abc")),
		"a cancel":        frame(`{"Cancel":true,"Segments":[]}`, nil),
		"a page delta":    frame(`{"Segments":[{"Name":"a","Size":3,"Enc":"raw","Pages":{"Bytes":8,"IDs":[0]}}]}`, []byte("abc")),
	}
}

// mislabelled is the golden image with its []float64 segment declared as
// something a *[]float64 must not restore from on this host: well-formed
// images all — unmarshalImage takes them, decodeState refuses.
func mislabelled(t testing.TB) map[string][]byte {
	other := map[string]string{"f64le": "f64be", "f64be": "f64le"}[encF64]
	out := make(map[string][]byte)
	for _, enc := range []string{encGob, encRaw, encI64, other} {
		img := goldenImage()
		img.Segments[3].Enc = enc
		data, err := img.marshal()
		if err != nil {
			t.Fatal(err)
		}
		out[enc] = data
	}
	return out
}

func TestUnmarshalImageRejectsMalformed(t *testing.T) {
	for name, data := range malformations(t) {
		if img, _, err := unmarshalImage(data); err == nil {
			t.Errorf("%s: accepted as %+v", name, img)
		}
	}
}

// TestMislabelledSegmentIsAnError: a typed variable restores only from the
// encoding its type collects to here; anything else is an error naming the
// segment — not garbage, not a conversion.
func TestMislabelledSegmentIsAnError(t *testing.T) {
	for enc, data := range mislabelled(t) {
		_, saved, err := unmarshalImage(data)
		if err != nil {
			t.Fatalf("%s: a well-formed image was refused: %v", enc, err)
		}
		var f []float64
		err = newRegistry(saved).register("grid", &f, false)
		if err == nil || !strings.Contains(err.Error(), `"grid"`) || !strings.Contains(err.Error(), enc) || f != nil {
			t.Errorf("restoring *[]float64 from a %s segment = %v (%d elements), want an error naming segment and encoding", enc, err, len(f))
		}
	}
}

// TestUnalignedTypedSegmentRestoresByCopy: a checkpoint's typed segment at
// an odd offset cannot be viewed as []float64; it restores bit for bit
// through the copy, in memory of its own. (The toolchain would not catch a
// misaligned view — checkptr lets pointer-free elements through — so the
// test asserts which path it took.)
func TestUnalignedTypedSegmentRestoresByCopy(t *testing.T) {
	want, tree := hardFloats(100, 7), []int64{math.MinInt64, -1, math.MaxInt64}
	odd := []byte{1, 2, 3}
	r := newRegistry(nil)
	if err := errors.Join(r.register("a-odd", &odd, false), r.register("grid", &want, false), r.register("tree", &tree, true)); err != nil {
		t.Fatal(err)
	}
	img, err := r.collect("")
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, saved, err := unmarshalImage(data)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := saved.awaitLazy("grid")
	if err != nil {
		t.Fatal(err)
	}
	if _, aligned := wordsOf[float64](sl.data); aligned {
		t.Fatal("the segment behind 3 odd bytes is 8-byte aligned: the test exercises nothing")
	}
	var got []float64
	var gotTree []int64
	back := newRegistry(saved)
	if err := errors.Join(back.register("grid", &got, false), back.register("tree", &gotTree, true), back.await("tree")); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) || !slices.Equal(gotTree, tree) {
		t.Fatalf("restored %v %v, want %v %v", got, gotTree, want, tree)
	}
	got[0] = 1
	if again := wordsFrom[float64](sl.data); !sameBits(again, want) {
		t.Fatal("the copy aliases the checkpoint's segment")
	}
}

// TestTypedCollectionIsByReference pins what typed collection costs: the
// segment is the array itself, and collecting 1 MiB of it allocates less
// than 4 KiB — the inventory, no copy, no encoder.
func TestTypedCollectionIsByReference(t *testing.T) {
	f, n := make([]float64, 1<<17), []int64{1, 2, 3}
	r := newRegistry(nil)
	if err := errors.Join(r.register("grid", &f, true), r.register("tree", &n, false)); err != nil {
		t.Fatal(err)
	}
	img, err := r.collect("")
	if err != nil {
		t.Fatal(err)
	}
	tree, grid := img.Segments[0], img.Segments[1]
	if grid.Enc != encF64 || grid.Size != 8*len(f) || unsafe.Pointer(&grid.Data[0]) != unsafe.Pointer(&f[0]) {
		t.Fatalf("grid segment: %s, %d bytes at %p; the array is %d bytes at %p", grid.Enc, grid.Size, &grid.Data[0], 8*len(f), &f[0])
	}
	if tree.Enc != encI64 || tree.Size != 8*len(n) || unsafe.Pointer(&tree.Data[0]) != unsafe.Pointer(&n[0]) {
		t.Fatalf("tree segment: %s, %d bytes at %p; the array is %d bytes at %p", tree.Enc, tree.Size, &tree.Data[0], 8*len(n), &n[0])
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := r.collect(""); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("collecting a 1 MiB []float64 allocates %d bytes", per)
	}
}

// FuzzUnmarshalImage: arbitrary bytes never panic, and whatever is accepted
// is exactly what marshal would have written, held in memory of its own —
// and restores into a *[]float64 only if it says it is one, bit for bit.
func FuzzUnmarshalImage(f *testing.F) {
	img := goldenImage()
	good, err := img.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, data := range malformations(f) {
		f.Add(data)
	}
	for _, data := range mislabelled(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		img, saved, err := unmarshalImage(data)
		if err != nil {
			return
		}
		var body []byte
		for _, s := range img.Segments {
			sl, err := saved.awaitLazy(s.Name)
			seg := sl.data
			if err != nil || s.Size != len(seg) || s.Enc != sl.enc {
				t.Fatalf("segment %q: size %d, %d bytes of data, %s held as %s, %v", s.Name, s.Size, len(seg), s.Enc, sl.enc, err)
			}
			var floats []float64
			if err := decodeState(sl, &floats); (err == nil) != (s.Enc == encF64) {
				t.Fatalf("segment %q (%s) into *[]float64: %v", s.Name, s.Enc, err)
			} else if err == nil {
				for i, v := range floats {
					if math.Float64bits(v) != binary.NativeEndian.Uint64(seg[8*i:]) {
						t.Fatalf("segment %q element %d = %x, the bytes say %x", s.Name, i, math.Float64bits(v), seg[8*i:8*i+8])
					}
				}
				if len(floats) != s.Size/8 {
					t.Fatalf("segment %q: %d elements from %d bytes", s.Name, len(floats), s.Size)
				}
			}
			body = append(body, seg...)
			for i := range seg {
				seg[i] ^= 0xFF
			}
		}
		if !bytes.HasSuffix(input, body) {
			t.Fatal("the segments are not the input's bytes")
		}
		if !bytes.Equal(data, input) {
			t.Fatal("restored data aliases the input")
		}
	})
}

// TestTornCheckpointFileIsAnError: a checkpoint file cut at any byte of its
// prefix and header (and a few bytes into the data) restores to an error.
func TestTornCheckpointFileIsAnError(t *testing.T) {
	img := goldenImage()
	good, err := img.marshal()
	if err != nil {
		t.Fatal(err)
	}
	store := FileStore{Dir: t.TempDir()}
	mw, _ := newMW(t, nil, 0)
	never := func(*Context) error { return errors.New("restored from a torn file") }
	for cut := 0; cut < 5+int(binary.BigEndian.Uint32(good[1:5]))+8; cut++ {
		if err := os.WriteFile(store.path("app"), good[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		if p, err := mw.Restore(store, "app", "ws1", never); err == nil {
			t.Fatalf("file cut at byte %d restored (Wait = %v)", cut, p.Wait())
		}
	}
}

// commPair returns both ends of a parent/child intercommunicator — the
// child's as its Env, whose Parent is the communicator — usable from the test
// goroutine: sends are eager-buffered, so one goroutine can play both sides.
func commPair(t *testing.T) (parent *mpi.Comm, child *mpi.Env) {
	t.Helper()
	parentEnd, childEnd := make(chan *mpi.Comm, 1), make(chan *mpi.Env, 1)
	release := make(chan struct{})
	wait := mpi.NewUniverse(mpi.Options{}).Start([]string{"a"}, func(env *mpi.Env) error {
		inter, err := env.Spawn([]string{"b"}, func(c *mpi.Env) error {
			childEnd <- c
			<-release
			return nil
		})
		parentEnd <- inter
		<-release
		return err
	})
	t.Cleanup(func() {
		close(release)
		wait()
	})
	return <-parentEnd, <-childEnd
}

// TestReceiveStateFollowsTheStream drives the one receive loop by hand: every
// migration is a run of images on tagHeader/tagEager that ends with the one
// whose Round is zero, or with a Cancel. What the loop cannot use it refuses
// with an error naming the segment, and bootstrap puts that text on
// tagResumed for the source.
func TestReceiveStateFollowsTheStream(t *testing.T) {
	// A 40-byte region of 16-byte pages: the last page is short.
	page := func(id, salt int) []byte { return pattern(min(16, 40-16*id), salt) }
	region := func(d pageDelta, pages ...[]byte) segment {
		return segment{Name: "region", Size: 40, Enc: encRaw, Pages: &d, parts: pages}
	}
	round1 := image{Round: 1, Segments: []segment{region(pageDelta{16, []int{0, 1, 2}}, page(0, 1), page(1, 1), page(2, 1))}}
	golden := goldenImage()
	handover := goldenImage()
	handover.Segments = append(handover.Segments, region(pageDelta{16, []int{2}}, page(2, 3)))
	bad := func(seg segment) []image { return []image{round1, {Round: 2, Segments: []segment{seg}}} }

	for _, row := range []struct {
		name    string
		stream  []image           // sent in order, each by sendState
		kill    bool              // the receiver's mailbox closes behind the stream
		abandon bool              // the source kills the receiver behind the stream
		want    map[string][]byte // the complete slots after the handover
		refusal string            // or: the error names this
	}{
		{name: "zero rounds", stream: []image{golden},
			want: map[string][]byte{"eager": golden.Segments[0].Data, "raw": golden.Segments[1].Data}},
		{name: "two rounds and a residual",
			stream: []image{round1, {Round: 2, Segments: []segment{region(pageDelta{16, []int{1}}, page(1, 2))}}, handover},
			want: map[string][]byte{"eager": golden.Segments[0].Data, "raw": golden.Segments[1].Data,
				"region": slices.Concat(page(0, 1), page(1, 2), page(2, 3))}},
		{name: "empty residual", stream: []image{round1, {Label: "l", Segments: []segment{region(pageDelta{Bytes: 16})}}},
			want: map[string][]byte{"region": slices.Concat(page(0, 1), page(1, 1), page(2, 1))}},
		{name: "cancel after round 1", stream: []image{round1, {Cancel: true}}},
		{name: "page past the region", stream: bad(region(pageDelta{16, []int{3}}, page(0, 2))), refusal: `"region"`},
		{name: "ids not ascending", stream: bad(region(pageDelta{16, []int{1, 1}}, page(1, 2), page(1, 2))), refusal: `"region"`},
		{name: "zero-byte pages", stream: bad(region(pageDelta{0, []int{0}}, page(0, 2))), refusal: `"region"`},
		{name: "a delta that is not raw", stream: bad(segment{Name: "region", Size: 40, Enc: "f64le", Pages: &pageDelta{16, []int{0}}, parts: [][]byte{page(0, 2)}}), refusal: `"region"`},
		{name: "fragment longer than its page", stream: bad(region(pageDelta{16, []int{2}}, pattern(9, 2))), refusal: `"region"`},
		{name: "no final header", stream: []image{round1}, kill: true, refusal: "receive execution state"},
		{name: "abandoned after round 1", stream: []image{round1}, abandon: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			parent, child := commPair(t)
			for i := range row.stream {
				if err := row.stream[i].sendState(parent); err != nil {
					t.Fatal(err)
				}
			}
			if row.kill {
				child.Kill()
			}
			if row.abandon {
				parent.KillRemote()
			}
			if row.want == nil {
				// A refusal reaches the source; a cancelled or abandoned destination
				// just exits.
				err := new(Process).bootstrap(child, child.Parent)
				if row.refusal == "" {
					if waiting, _, _ := parent.Iprobe(0, mpi.AnyTag); err != nil || waiting {
						t.Fatalf("cancelled bootstrap = %v (answered the source: %v), want a silent exit", err, waiting)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), row.refusal) {
					t.Fatalf("bootstrap = %v, want an error naming %s", err, row.refusal)
				}
				if told := recvStatus(parent, tagResumed); told == nil || told.Error() != err.Error() {
					t.Fatalf("the source was told %v, the destination failed with %v", told, err)
				}
				return
			}
			img, saved, err := receiveState(child.U.Clock(), child.Parent)
			if err != nil {
				t.Fatal(err)
			}
			last := row.stream[len(row.stream)-1]
			if img.Label != last.Label || img.Memory != last.Memory || len(img.Segments) != len(last.Segments) {
				t.Fatalf("handed over %+v, sent %+v", img, last)
			}
			for _, seg := range img.Segments {
				sl, want := saved.slots[seg.Name], row.want[seg.Name]
				if sl.ready != !seg.Lazy || sl.enc != seg.Enc || !bytes.Equal(sl.data, want) {
					t.Fatalf("slot %q: ready=%v %s %x, want ready=%v %s %x", seg.Name, sl.ready, sl.enc, sl.data, !seg.Lazy, seg.Enc, want)
				}
			}
		})
	}
}

// TestChunkOverrunFailsTheRestoration: the receiver cuts the stream by the
// sizes it was told, and a chunk larger than what its segment still lacks
// is an error, not a spill into the next segment.
func TestChunkOverrunFailsTheRestoration(t *testing.T) {
	parent, child := commPair(t)
	sent := image{Segments: []segment{{Name: "bulk", Lazy: true, Size: 3000, Data: make([]byte, 3000)}}}
	told := image{Segments: []segment{{Name: "bulk", Lazy: true, Size: 2500}}}
	if err := sendLazy(parent, sent.chunks(true, testChunk)); err != nil {
		t.Fatal(err)
	}
	err := newSavedState(nil, told).restore(child.Parent, told, true)
	if err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("restore = %v, want an overrun error", err)
	}
}

// TestLazyChunksCostNoCodec pins what a chunk costs: streaming and restoring
// a segment in 16 chunks allocates at most 64 times more than in one (an
// envelope, a fragment header — no encoder, no per-chunk message).
func TestLazyChunksCostNoCodec(t *testing.T) {
	parent, child := commPair(t)
	data := make([]byte, 16*testChunk)
	img := image{Segments: []segment{{Name: "bulk", Lazy: true, Size: len(data), Data: data}}}
	cost := func(chunk int) float64 {
		return testing.AllocsPerRun(20, func() {
			saved := newSavedState(nil, img)
			if err := sendLazy(parent, img.chunks(true, chunk)); err != nil {
				t.Fatal(err)
			}
			if err := saved.restore(child.Parent, img, true); err != nil {
				t.Fatal(err)
			}
			if got, err := saved.awaitLazy("bulk"); err != nil || len(got.data) != len(data) {
				t.Fatalf("restored %d bytes, %v", len(got.data), err)
			}
		})
	}
	one, sixteen := cost(len(data)), cost(testChunk)
	if sixteen-one > 64 {
		t.Fatalf("16 chunks cost %.0f allocations, 1 chunk %.0f: more than 64 apart", sixteen, one)
	}
}
