package main

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"sync"
	"time"
)

// The reference box is a shared 2-vCPU VM whose cores run 20-30 % faster or
// slower for a minute at a time, depending on what its neighbours do: across
// ten runs, CPU time per op of every workload moves together by that much.
// No estimator inside one run can remove a slowdown that lasts the whole
// run, so the harness measures the slowdown itself. Between segments, while
// the drivers are parked, every core runs a fixed kernel; how long it took
// against its nominal time is the machine's slowness during the neighbouring
// segments, and every time-based end-to-end metric is reported at nominal
// machine speed: wall and CPU times divided by the slowness, rates
// multiplied by it. Allocation counts and peak RSS are left as measured.
//
// The kernel uses nothing of this repository, so that no change to the
// program can move it.

// kernelNominal is what one kernel pass takes on the reference box in its
// usual state; it only fixes the unit, so that slowness is about 1.
const kernelNominal = 6 * time.Millisecond

// kernelCores is how many cores are sampled: the cores the drivers use.
const kernelCores = 2

// kernelRecord is what the kernel encodes and decodes: the shape of a
// heartbeat, declared here so that the program's own types stay out.
type kernelRecord struct {
	XMLName xml.Name `xml:"rec" json:"-"`
	Host    string   `xml:"host,attr" json:"host"`
	Seq     uint64   `xml:"seq,attr" json:"seq"`
	State   string   `xml:"state" json:"state"`
	Load    float64  `xml:"load" json:"load"`
	Procs   int      `xml:"procs" json:"procs"`
	Mem     int64    `xml:"mem" json:"mem"`
}

// calibrator runs the kernel. It holds no buffers: a kernel that touched a
// large buffer of its own would time how much of it the workload had just
// pushed out of the shared cache, not how fast the cores are.
type calibrator struct {
	// passes is how often measure runs the kernel on each core; it reports
	// the median pass.
	passes int
}

// kernel is a fixed piece of the kind of work every workload here does most:
// reflection-driven encoding and decoding with many small allocations, and a
// map of pointers left behind for the collector.
func (c *calibrator) kernel() {
	rec := kernelRecord{Host: "h0001", Seq: 42, State: "busy", Load: 1.5, Procs: 40, Mem: 1 << 30}
	index := make(map[string]*kernelRecord)
	for i := 0; i < 200; i++ {
		data, err := xml.Marshal(&rec)
		if err != nil {
			panic(err) // a fixed record of numbers and short strings always encodes
		}
		back := new(kernelRecord)
		if err := xml.Unmarshal(data, back); err != nil {
			panic(err)
		}
		index[fmt.Sprintf("x%04d", i)] = back
	}
	for i := 0; i < 800; i++ {
		data, err := json.Marshal(&rec)
		if err != nil {
			panic(err)
		}
		back := new(kernelRecord)
		if err := json.Unmarshal(data, back); err != nil {
			panic(err)
		}
		index[fmt.Sprintf("j%04d", i)] = back
	}
	if len(index) != 1000 {
		panic("calibration kernel lost records")
	}
}

// measure runs the kernel on every core at once and returns the median pass
// time, averaged over the cores.
func (c *calibrator) measure() time.Duration {
	var wg sync.WaitGroup
	var per [kernelCores]time.Duration
	for core := 0; core < kernelCores; core++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			passes := make([]float64, c.passes)
			for i := range passes {
				t0 := time.Now()
				c.kernel()
				passes[i] = float64(time.Since(t0))
			}
			per[core] = time.Duration(median(passes))
		}(core)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range per {
		sum += d
	}
	return sum / kernelCores
}

// slowness is the machine-slowness index of an interval from the kernel
// times sampled before and after it: 1.25 means the cores ran a quarter
// slower than nominal.
func slowness(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(kernelNominal)
}
