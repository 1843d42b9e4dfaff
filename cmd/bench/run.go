package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what a workload's build function gets: the seed its generators
// draw from, a directory of its own for stores, and the tracer (nil in an
// untraced run).
type env struct {
	seed int64
	dir  string
	tr   *tracer
}

// fixture is one built instance of a workload: the real layers wired
// together, ready to take ops from its driver goroutines.
type fixture interface {
	// drivers is the number of closed-loop driver goroutines; driver d
	// issues its next op only when the previous one returned.
	drivers() int
	// op runs op number i (counted per driver across warm-up and timed
	// section) on driver d. An error is a failed op.
	op(d, i int) error
	// verify checks the program's outputs once the timed section is over.
	verify() error
	// layers fills the per-layer metrics this workload exercises from the
	// trace totals and its own counters; ops is the number of traced ops.
	layers(m map[string]float64, t spanTotals, ops int) error
	// close stops everything the fixture started and waits for it.
	close() error
}

// workloadDef is one named row of the workload table.
type workloadDef struct {
	name string
	// timedPerSec and warmup are fixed op counts: timed ops per second of
	// --seconds (sized on the 2-core reference box so the timed section
	// lasts about that long) and the warm-up before the first timed op.
	// Fixed counts, never durations, so allocation counts repeat.
	timedPerSec float64
	warmup      int
	// tail is the percentile op_tail_ms reports at the default run length.
	tail  float64
	build func(e env) (fixture, error)
}

// setupReps is how often a run builds the fixture and warms it up; setup_s
// is the median, so one disturbed build does not decide it.
const setupReps = 3

// segments is how many equal-count slices the timed section is cut into. The
// machine's speed is sampled between them (see calibrate.go) and ops_per_s
// is the median over them.
const segments = 10

// result is what one run of one workload measured.
type result struct {
	attempted, failed int
	correct           bool
	firstErr          error
	tailPct           float64
	samples           int
	// slow is the median machine-slowness index of the measured segments.
	slow    float64
	metrics map[string]float64
}

type usage struct {
	cpu            time.Duration
	mallocs, bytes uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.bytes = ms.Mallocs, ms.TotalAlloc
	return u
}

// resetPeakRSS sets the kernel's high-water mark back to the current resident
// set, so that the next peakRSSMB covers one segment. Where the kernel
// refuses, every segment reports the peak of the run so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // refused: fall back to the peak so far
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// checker is implemented by a fixture whose per-op output check is too
// heavy to sit inside the op (recover digests a 4096-host state). The
// harness runs check after the op's end timestamp and, so that the check's
// CPU and allocations stay out of the per-op metrics too, samples resource
// usage around every op. Only for single-driver workloads with slow ops.
type checker interface {
	check(d, i int) error
}

// pauser is implemented by a fixture that keeps working between ops (the
// migrate workloads' application never stops sweeping). The harness parks it
// while the calibration kernel has the cores.
type pauser interface {
	pause()
	resume()
}

// sample measures the machine's speed with the fixture, if any, at rest.
func sample(cal *calibrator, fx fixture) time.Duration {
	if p, ok := fx.(pauser); ok {
		p.pause()
		defer p.resume()
	}
	return cal.measure()
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, bytes: u.bytes - v.bytes}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, mallocs: u.mallocs + v.mallocs, bytes: u.bytes + v.bytes}
}

// phase runs ops [from, from+n) of every driver concurrently, each driver in
// a closed loop, and returns every op's latency in ns per driver and the
// resources the ops used.
func phase(fx fixture, from, n int, res *result) (lats [][]int64, used usage) {
	d := fx.drivers()
	lats = make([][]int64, d)
	for i := range lats {
		lats[i] = make([]int64, n)
	}
	chk, _ := fx.(checker)
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := readUsage()
	for drv := 0; drv < d; drv++ {
		wg.Add(1)
		go func(drv int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				var u0 usage
				if chk != nil {
					u0 = readUsage()
				}
				start := time.Now()
				err := fx.op(drv, from+i)
				lats[drv][i] = int64(time.Since(start))
				if chk != nil {
					u1 := readUsage()
					if err == nil {
						err = chk.check(drv, from+i)
					}
					mu.Lock()
					used = used.add(u1.sub(u0))
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("op %d on driver %d: %w", from+i, drv, err)
					}
					mu.Unlock()
				}
			}
		}(drv)
	}
	wg.Wait()
	if chk == nil {
		used = readUsage().sub(before)
	}
	res.attempted += d * n
	return lats, used
}

// segment is one equal-count slice of the timed section: every driver's op
// latencies in ns, the resources the ops used, how slow the machine was
// while it ran, and whether the tracer was recording.
type segment struct {
	lats   [][]int64
	used   usage
	slow   float64
	traced bool
	// peakRSS is the resident-set high-water mark of the segment in MiB.
	peakRSS float64
}

// normalised returns the segment's latencies in ms at nominal machine speed.
func (s segment) normalised() []float64 {
	var out []float64
	for _, l := range s.lats {
		for _, ns := range l {
			out = append(out, float64(ns)/1e6/s.slow)
		}
	}
	return out
}

// throughput is the sum over drivers of the driver's median per-segment rate
// at nominal machine speed: ops in the segment over the time the driver
// spent in them. The median keeps a neighbour's burst out of the result.
func throughput(segs []segment) float64 {
	var total float64
	for d := range segs[0].lats {
		var rates []float64
		for _, s := range segs {
			var ns int64
			for _, v := range s.lats[d] {
				ns += v
			}
			if ns > 0 {
				rates = append(rates, float64(len(s.lats[d]))/(float64(ns)/1e9)*s.slow)
			}
		}
		total += median(rates)
	}
	return total
}

// tail is the median, over as many equal runs of consecutive segments as
// still leave ten samples beyond percentile p in each, of that percentile:
// with 200 samples beyond p99.9 it is the median of ten per-segment tails,
// which one burst cannot move; with 16 beyond p95 it is the plain percentile.
func tail(segs [][]float64, p float64) float64 {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	parts := max(1, min(len(segs), beyond(total, p)/10))
	var tails []float64
	for g := 0; g < parts; g++ {
		var part []float64
		for _, s := range segs[len(segs)*g/parts : len(segs)*(g+1)/parts] {
			part = append(part, s...)
		}
		sort.Float64s(part)
		tails = append(tails, percentile(part, p))
	}
	return median(tails)
}

// runWorkload measures one workload once. With tr == nil it yields the
// end-to-end metrics. With a tracer, recording is on in every second segment:
// those yield the per-layer metrics, and the segments between them, equally
// spread over the run, are the untraced baseline of trace.overhead_pct.
func runWorkload(w workloadDef, seed int64, seconds int, tr *tracer, cal *calibrator, scratch string) (result, error) {
	res := result{metrics: map[string]float64{}}

	var fx fixture
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		before := sample(cal, nil)
		t0 := time.Now()
		e := env{seed: seed, dir: filepath.Join(scratch, fmt.Sprintf("fx%d", rep)), tr: tr}
		built, err := w.build(e)
		if err != nil {
			return res, fmt.Errorf("build %s: %w", w.name, err)
		}
		fx = built
		var warm result
		phase(fx, 0, w.warmup/fx.drivers(), &warm)
		took := time.Since(t0).Seconds()
		setups = append(setups, took/slowness(before, sample(cal, fx)))
		if warm.failed > 0 {
			return res, errors.Join(fmt.Errorf("warm-up of %s: %w", w.name, warm.firstErr), fx.close())
		}
		if rep < setupReps-1 {
			if err := fx.close(); err != nil {
				return res, fmt.Errorf("close %s: %w", w.name, err)
			}
			runtime.GC()
		}
	}

	perDriver := int(w.timedPerSec*float64(seconds)) / fx.drivers()
	from := w.warmup / fx.drivers()
	nseg := min(segments, perDriver)
	segs := make([]segment, 0, nseg)
	runtime.GC()
	mark := sample(cal, fx)
	for s := 0; s < nseg; s++ {
		n := perDriver*(s+1)/nseg - perDriver*s/nseg
		traced := tr != nil && s%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		resetPeakRSS()
		lats, used := phase(fx, from, n, &res)
		from += n
		peak := peakRSSMB()
		next := sample(cal, fx)
		segs = append(segs, segment{lats: lats, used: used, slow: slowness(mark, next), traced: traced, peakRSS: peak})
		mark = next
	}
	if tr != nil {
		tr.on.Store(false)
	}
	verr := fx.verify()

	var plain, traced []float64
	var groups [][]float64 // the untraced segments' latencies, in run order
	var used usage
	var cpuMS float64
	var slows, tracedSlows, peaks []float64
	ops, tracedOps := 0, 0
	for _, s := range segs {
		n := len(s.lats) * len(s.lats[0])
		if s.traced {
			traced = append(traced, s.normalised()...)
			tracedOps += n
			tracedSlows = append(tracedSlows, s.slow)
			continue
		}
		groups = append(groups, s.normalised())
		plain = append(plain, groups[len(groups)-1]...)
		ops += n
		used = used.add(s.used)
		cpuMS += float64(s.used.cpu) / 1e6 / s.slow
		slows = append(slows, s.slow)
		peaks = append(peaks, s.peakRSS)
	}
	sort.Float64s(plain)
	sort.Float64s(traced)
	res.slow = median(slows)

	if tr != nil {
		tr.mu.Lock()
		tot := totals(tr.spans)
		tr.mu.Unlock()
		for _, def := range perLayer {
			res.metrics[def.name] = 0
		}
		if err := fx.layers(res.metrics, tot, tracedOps); err != nil {
			return res, errors.Join(fmt.Errorf("per-layer metrics of %s: %w", w.name, err), fx.close())
		}
		// Layer times, like the end-to-end ones, are at nominal speed.
		if slow := median(tracedSlows); slow > 0 {
			for _, def := range perLayer {
				if def.unit == "us" || def.unit == "ms" {
					res.metrics[def.name] /= slow
				}
			}
		}
		res.metrics["trace.coverage"] = tot.coverage()
		res.metrics["trace.spans"] = float64(len(tot.spans))
		if base := percentile(plain, 50); base > 0 {
			res.metrics["trace.overhead_pct"] = 100 * (percentile(traced, 50) - base) / base
		}
		res.metrics["bench.slowness"] = median(tracedSlows)
	} else {
		res.tailPct = tailPercentile(len(plain), w.tail)
		res.samples = len(plain)
		res.metrics["setup_s"] = median(setups)
		res.metrics["ops_per_s"] = throughput(segs)
		res.metrics["op_p50_ms"] = percentile(plain, 50)
		res.metrics["op_tail_ms"] = tail(groups, res.tailPct)
		res.metrics["cpu_ms_per_op"] = cpuMS / float64(ops)
		res.metrics["allocs_per_op"] = float64(used.mallocs) / float64(ops)
		res.metrics["alloc_kb_per_op"] = float64(used.bytes) / 1024 / float64(ops)
		res.metrics["peak_rss_mb"] = median(peaks)
	}

	cerr := fx.close()
	switch {
	case verr != nil:
		res.firstErr = fmt.Errorf("output check: %w", verr)
	case cerr != nil && res.firstErr == nil:
		res.firstErr = fmt.Errorf("close: %w", cerr)
	}
	res.correct = res.failed == 0 && verr == nil && cerr == nil
	return res, nil
}
