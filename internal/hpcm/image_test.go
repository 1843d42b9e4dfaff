package hpcm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/image.golden from the current format")

const (
	testChunk = 1 << 10
	testMem   = 48 << 20
)

// stateValues is a deep copy of the one registered state set the carrier
// tests move: an eager struct, a raw []byte, a lazy []float64, a zero-length
// lazy blob, a lazy blob of 3.5 chunks and (second row) a paged region.
type stateValues struct {
	Eager struct {
		Step    int
		Name    string
		Weights [3]float64
	}
	Raw, Empty, Bulk, Pages []byte
	Grid                    []float64
}

func (v stateValues) equal(w stateValues) bool {
	return v.Eager == w.Eager && bytes.Equal(v.Raw, w.Raw) && bytes.Equal(v.Empty, w.Empty) &&
		bytes.Equal(v.Bulk, w.Bulk) && bytes.Equal(v.Pages, w.Pages) && slices.Equal(v.Grid, w.Grid)
}

func pattern(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + salt)
	}
	return b
}

// stateMain registers the state set. A fresh incarnation fills it, reports
// it on out and polls until it is moved; a resumed one awaits everything,
// reports what arrived, and then scribbles over its raw regions — which
// must not reach the checkpoint it was restored from.
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
			ctx.RegisterLazy("grid", &v.Grid),
			ctx.RegisterLazy("empty", &v.Empty),
			ctx.RegisterLazy("bulk", &v.Bulk),
		)
		if paged && err == nil {
			err = ctx.RegisterPages("pages", pages)
		}
		if err != nil {
			return err
		}
		report := func() {
			w := v
			w.Raw, w.Empty, w.Bulk = bytes.Clone(v.Raw), bytes.Clone(v.Empty), bytes.Clone(v.Bulk)
			w.Grid = slices.Clone(v.Grid)
			if paged {
				w.Pages = bytes.Clone(pages.Bytes())
			}
			out <- w
		}
		if ctx.Resumed() {
			lazy := []string{"grid", "empty", "bulk"}
			if paged {
				lazy = append(lazy, "pages")
			}
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
			return nil
		}
		v.Eager.Step, v.Eager.Name, v.Eager.Weights = 42, "jacobi", [3]float64{0.25, -1, 1e-9}
		v.Raw, v.Empty, v.Bulk = pattern(64, 1), []byte{}, pattern(testChunk*7/2, 2)
		for i := 0; i < 10; i++ {
			v.Grid = append(v.Grid, float64(i)/3)
		}
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
// compares everything that arrives bit for bit with the source.
func TestOneStateSetBothCarriers(t *testing.T) {
	for _, row := range []struct {
		name string
		live *livemig.Config
	}{
		{"stop-and-copy", nil},
		{"paged-live", &livemig.Config{}},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock := vclock.Scaled(vclock.Epoch, 200)
			store := NewMemStore()
			mw, err := New(Options{
				Universe: mpi.NewUniverse(mpi.Options{
					Clock:     clock,
					Transport: mpi.ModelTransport{Clock: clock, Latency: time.Millisecond, Bandwidth: 100e6},
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
			source := <-out
			p.Signal(Command{DestHost: "ws2"})
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if streamed := <-out; !streamed.equal(source) {
				t.Fatalf("streamed state differs from the source:\n got %+v\nwant %+v", streamed, source)
			}
			// Live: the region went ahead in precopy rounds, skipped by collect
			// and installed under PagesName — not a segment of the image.
			if rec := p.Records()[0]; paged && (rec.PrecopyRounds < 1 || rec.LazyBytes >= int64(32*64+testChunk*7/2)) {
				t.Fatalf("paged region not shipped ahead of the image: %+v", rec)
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

// goldenImage has row one's inventory — the same names, kinds and order —
// with literal payloads where the application's would be gob: gob's bytes
// depend on which types the test binary encoded earlier, a golden file must
// not.
func goldenImage() image {
	seg := func(name string, lazy bool, data []byte) segment {
		return segment{Name: name, Lazy: lazy, Size: len(data), Data: data}
	}
	return image{Label: "moved", Memory: testMem, Segments: []segment{
		seg("eager", false, []byte("eager-struct")),
		seg("raw", false, pattern(64, 1)),
		seg("empty", true, nil),
		seg("grid", true, pattern(80, 3)),
		seg("bulk", true, pattern(testChunk*7/2, 2)),
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
		if data, err := saved.awaitLazy(s.Name); err != nil || s.Name != o.Name || s.Lazy != o.Lazy || !bytes.Equal(data, o.Data) {
			t.Fatalf("segment %d = %q lazy=%v (%d bytes, %v), want %q lazy=%v (%d bytes)", i, s.Name, s.Lazy, len(data), err, o.Name, o.Lazy, len(o.Data))
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
		if got := strings.Join(order, " "); got != "a z small tie big" || img.PagesName != "skipped" {
			t.Fatalf("inventory = %q (pages %q)", got, img.PagesName)
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
		"negative size":           frame(`{"Segments":[{"Name":"a","Size":-1}]}`, nil),
		"size beyond the bytes":   frame(`{"Segments":[{"Name":"a","Size":4611686018427387904}]}`, []byte("abc")),
		"sizes overflow their sum": frame(`{"Segments":[{"Name":"a","Size":9223372036854775807},{"Name":"b","Size":9223372036854775807},{"Name":"c","Size":5}]}`,
			[]byte("abc")),
		"size not an int": frame(`{"Segments":[{"Name":"a","Size":1e30}]}`, nil),
		"duplicate name":  frame(`{"Segments":[{"Name":"a","Size":1},{"Name":"a","Size":2}]}`, []byte("abc")),
		"sizes fall short": frame(`{"Segments":[{"Name":"a","Size":1},{"Name":"b","Size":1}]}`,
			[]byte("abc")),
	}
}

func TestUnmarshalImageRejectsMalformed(t *testing.T) {
	for name, data := range malformations(t) {
		if img, _, err := unmarshalImage(data); err == nil {
			t.Errorf("%s: accepted as %+v", name, img)
		}
	}
}

// FuzzUnmarshalImage: arbitrary bytes never panic, and whatever is accepted
// is exactly what marshal would have written, held in memory of its own.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		img, saved, err := unmarshalImage(data)
		if err != nil {
			return
		}
		var body []byte
		for _, s := range img.Segments {
			seg, err := saved.awaitLazy(s.Name)
			if err != nil || s.Size != len(seg) {
				t.Fatalf("segment %q: size %d, %d bytes of data, %v", s.Name, s.Size, len(seg), err)
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

// commPair returns both ends of a parent/child intercommunicator, usable
// from the test goroutine: sends are eager-buffered, so one goroutine can
// play both sides.
func commPair(t *testing.T) (parent, child *mpi.Comm) {
	t.Helper()
	parentEnd, childEnd := make(chan *mpi.Comm, 1), make(chan *mpi.Comm, 1)
	release := make(chan struct{})
	wait := mpi.NewUniverse(mpi.Options{}).Start([]string{"a"}, func(env *mpi.Env) error {
		inter, err := env.Spawn([]string{"b"}, func(c *mpi.Env) error {
			childEnd <- c.Parent
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
	err := newSavedState(told).restore(child, told, true)
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
			saved := newSavedState(img)
			if err := sendLazy(parent, img.chunks(true, chunk)); err != nil {
				t.Fatal(err)
			}
			if err := saved.restore(child, img, true); err != nil {
				t.Fatal(err)
			}
			if got, err := saved.awaitLazy("bulk"); err != nil || len(got) != len(data) {
				t.Fatalf("restored %d bytes, %v", len(got), err)
			}
		})
	}
	one, sixteen := cost(len(data)), cost(testChunk)
	if sixteen-one > 64 {
		t.Fatalf("16 chunks cost %.0f allocations, 1 chunk %.0f: more than 64 apart", sixteen, one)
	}
}
