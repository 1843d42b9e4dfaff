package main

import (
	"fmt"
	"math/rand"
	"time"

	"autoresched/internal/jobs"
	"autoresched/internal/proto"
	"autoresched/internal/sysinfo"
)

// The benchmark's inputs. Everything a workload feeds the program is drawn
// here from --seed; the program itself never sees the seed.

// hostName names host i the way every workload does.
func hostName(i int) string { return fmt.Sprintf("h%04d", i) }

// subSeed derives an independent stream for one host or one purpose.
func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7919 + 1 }

// synthProcs is the process table every synthetic host reports: 40 entries,
// below the numProcs rule's busy threshold, so the load average alone
// decides the state.
var synthProcs = func() []sysinfo.ProcStat {
	procs := make([]sysinfo.ProcStat, 40)
	for i := range procs {
		procs[i] = sysinfo.ProcStat{PID: 100 + i, Name: "proc", Memory: 1 << 20}
	}
	return procs
}()

// synthSource is a seeded sysinfo.Source for one host. Every Gather starts
// with Now, which draws the next reading: a state class chosen uniformly
// from free/busy/overloaded (so two readings in three move the host to
// another state set at the registry) and a one-minute load inside that
// class's band of core.DefaultEngine's loadAverage rule (busy above 1,
// overloaded above 2).
type synthSource struct {
	static sysinfo.Static
	rng    *rand.Rand

	tick       int64
	load1      float64
	busy, idle time.Duration
	memUsed    int64
	sent, recv int64
	sockets    int
}

func newSynthSource(seed int64, idx int) *synthSource {
	name := hostName(idx)
	return &synthSource{
		static: sysinfo.Static{
			HostName: name, Addr: "cmd://" + name, OS: "linux", Arch: "amd64",
			CPUSpeed: 1e9, MemTotal: 8 << 30,
		},
		rng: rand.New(rand.NewSource(subSeed(seed, idx))),
	}
}

func (s *synthSource) Static() sysinfo.Static { return s.static }

// staticInfo is the registration payload of a synthetic host, as
// monitor.Monitor would build it from the source.
func (s *synthSource) staticInfo() proto.StaticInfo {
	st := s.static
	return proto.StaticInfo{Addr: st.Addr, OS: st.OS, Arch: st.Arch, CPUSpeed: st.CPUSpeed, MemTotal: st.MemTotal}
}

// Now advances the source by one 10-second sampling interval.
func (s *synthSource) Now() time.Time {
	s.tick++
	class := s.rng.Intn(3)
	s.load1 = float64(class) + 0.1 + 0.8*s.rng.Float64()
	busy := time.Duration(s.rng.Int63n(int64(10 * time.Second)))
	s.busy += busy
	s.idle += 10*time.Second - busy
	s.memUsed = 1<<30 + s.rng.Int63n(4<<30)
	s.sent += s.rng.Int63n(50 << 20)
	s.recv += s.rng.Int63n(50 << 20)
	s.sockets = 20 + s.rng.Intn(200)
	return time.Unix(1_700_000_000, 0).Add(time.Duration(s.tick) * 10 * time.Second)
}

func (s *synthSource) LoadAvg() (float64, float64, float64, error) {
	return s.load1, s.load1 * 0.9, s.load1 * 0.8, nil
}
func (s *synthSource) CPUTimes() (time.Duration, time.Duration, error) { return s.busy, s.idle, nil }
func (s *synthSource) Memory() (int64, int64, error)                   { return s.static.MemTotal, s.memUsed, nil }
func (s *synthSource) Swap() (int64, int64, error)                     { return 2 << 30, 0, nil }
func (s *synthSource) Disks() ([]sysinfo.DiskUsage, error)             { return nil, nil }
func (s *synthSource) NetCounters() (int64, int64, error)              { return s.sent, s.recv, nil }
func (s *synthSource) Sockets() (int, error)                           { return s.sockets, nil }
func (s *synthSource) Procs() ([]sysinfo.ProcStat, error)              { return synthProcs, nil }
func (s *synthSource) RunQueue() (int, error)                          { return int(s.load1), nil }

var _ sysinfo.Source = (*synthSource)(nil)

// specGen draws the job specs admit_backlog submits: priority 0-2, gang 1-4,
// every third job elastic (shrinkable down to one rank).
type specGen struct {
	rng *rand.Rand
	n   int
}

func newSpecGen(seed int64) *specGen {
	return &specGen{rng: rand.New(rand.NewSource(subSeed(seed, 1<<20)))}
}

func (g *specGen) next() jobs.Spec {
	g.n++
	return jobs.Spec{
		Name:     fmt.Sprintf("job%06d", g.n),
		Priority: g.rng.Intn(3),
		Gang:     1 + g.rng.Intn(4),
		Elastic:  g.n%3 == 0,
		MinWorld: 1,
	}
}

// jacobiHot is the seeded top-boundary temperature of the migrate workloads'
// grid; it changes every residual of the run and none of the work.
func jacobiHot(seed int64) float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, 1<<21)))
	return 50 + 100*rng.Float64()
}
