// Package experiments reproduces the paper's evaluation (Section 5):
// Figures 5 and 6 (rescheduler overhead on load, CPU and communication),
// Figures 7 and 8 (the efficiency timeline of one autonomic migration), and
// Table 2 (the three migration policies on the five-workstation scenario).
//
// Absolute numbers come from a simulated cluster, not the paper's Sun Blade
// testbed, so each experiment reports the quantities the paper's claims are
// about — overhead percentages, phase durations, per-policy completion
// times and destinations — and EXPERIMENTS.md compares their shape with the
// published values.
package experiments

import (
	"time"

	"autoresched/internal/core"
	"autoresched/internal/metrics"
	"autoresched/internal/sim"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// Params are the common experiment knobs.
type Params struct {
	// Seed feeds the load generators.
	Seed int64
	// Metrics, when set, accumulates the run's metrics registries
	// (histograms merged bucket-wise) for a run-wide snapshot — the
	// cmd/repro -metrics flag feeds from here. The chaos, scale, malleable
	// and livemig experiments fill it.
	Metrics *metrics.Registry
}

// sampleInterval is the paper's monitoring and sampling interval.
const sampleInterval = 10 * time.Second

// hostSpeed is the CPU capacity used by all experiment hosts, in work units
// per second. The unit is arbitrary; workload sizes below are calibrated
// against it.
const hostSpeed = 1e6

// newCluster builds a fresh cluster with n Sun-Blade-like hosts named
// ws1..wsN on 100 Mbps Ethernet, on an Auto clock the calling goroutine
// drives: the experiment's timeline is the same on every run.
func newCluster(n int) (*core.Cluster, []string, error) {
	clock := vclock.NewAuto(vclock.Epoch)
	cl := core.NewCluster(clock, 12.5e6)
	names, err := cl.AddHosts("ws", n, sim.Config{Speed: hostSpeed, MemTotal: 128 << 20, MemBase: 24 << 20})
	if err != nil {
		return nil, nil, err
	}
	return cl, names, nil
}

// sampler periodically gathers a host's windowed snapshot and records the
// figure series: 1- and 5-minute load, CPU utilisation, and send/receive
// rates in KB/s. It is the stand-in for the paper's standalone "sysinfo"
// performance sensor.
type sampler struct {
	rec    *metrics.Recorder
	prefix string
	sensor *sysinfo.Sensor
	clock  vclock.Clock
	stop   vclock.Event
	done   vclock.Event
}

func newSampler(rec *metrics.Recorder, cl *core.Cluster, host, prefix string, interval time.Duration) *sampler {
	src, _ := cl.Source(host)
	s := &sampler{
		rec:    rec,
		prefix: prefix,
		sensor: sysinfo.NewSensor(src),
		clock:  cl.Clock(),
	}
	clock := s.clock
	vclock.Go(clock, func() {
		defer s.done.Fire()
		// Prime the window.
		if _, err := s.sensor.Gather(); err != nil {
			return
		}
		for vclock.Wait(clock, interval, &s.stop) == nil {
			snap, err := s.sensor.Gather()
			if err != nil {
				return
			}
			s.rec.Record(s.prefix+"/load1", snap.Load1)
			s.rec.Record(s.prefix+"/load5", snap.Load5)
			s.rec.Record(s.prefix+"/cpu", snap.CPUUtilPct)
			s.rec.Record(s.prefix+"/sentKBs", snap.NetSentBps/1e3)
			s.rec.Record(s.prefix+"/recvKBs", snap.NetRecvBps/1e3)
		}
	})
	return s
}

func (s *sampler) Stop() {
	s.stop.Fire()
	vclock.Await(s.clock, &s.done)
}
