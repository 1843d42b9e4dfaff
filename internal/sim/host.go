package sim

// The evaluation (Section 5) observes hosts through exactly the quantities a
// Sun Blade 100 exposes to vmstat/prstat/ps: 1- and 5-minute load averages,
// CPU utilisation, the process table with start times, and memory use. The
// Host type reproduces those observables with an analytic model:
//
//   - One CPU delivering Speed work units per second, shared equally among
//     the runnable processes (proportional-share scheduling). A process is
//     runnable while it has an outstanding Compute request.
//   - UNIX load averages: exponentially damped averages of the run-queue
//     length with time constants of 1, 5 and 15 minutes, integrated exactly
//     over the piecewise-constant run-queue segments.
//   - Cumulative busy/idle CPU time, from which sensors derive windowed
//     utilisation exactly as vmstat derives idle percentages.
//
// Progress is integrated lazily between events (process arrivals, compute
// completions, queries), so results are deterministic given a clock and do
// not depend on goroutine scheduling.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"autoresched/internal/vclock"
)

// ErrProcessExited is returned by operations on a process that has exited.
var ErrProcessExited = errors.New("sim: process has exited")

// Config describes the fixed characteristics of a simulated host.
type Config struct {
	// Speed is the capacity of one CPU in work units per second. The unit
	// is arbitrary; only ratios between hosts and workloads matter. Zero
	// selects 1e6 (one "megaflop-second" per second).
	Speed float64
	// MemTotal is the physical memory in bytes. Zero selects 128 MB, the
	// paper's Sun Blade 100. Swap is twice as large.
	MemTotal int64
	// MemBase is memory used by the operating system itself.
	MemBase int64
}

// Host is a simulated workstation.
type Host struct {
	clock vclock.Clock
	name  string
	cfg   Config

	mu       sync.Mutex
	procs    []*Proc // the process table, sorted by pid
	nextPID  int
	lastAdv  time.Time
	load     [3]float64 // 1, 5, 15 minute damped run-queue averages
	busyTime time.Duration
	idleTime time.Duration
	wake     wakeup
}

var loadTau = [3]float64{60, 300, 900} // seconds

// NewHost creates a host named name driven by clock.
func NewHost(clock vclock.Clock, name string, cfg Config) *Host {
	if cfg.Speed <= 0 {
		cfg.Speed = 1e6
	}
	if cfg.MemTotal <= 0 {
		cfg.MemTotal = 128 << 20
	}
	return &Host{
		clock:   clock,
		name:    name,
		cfg:     cfg,
		nextPID: 100, // leave room for "system" pids
		lastAdv: clock.Now(),
	}
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Speed returns the CPU's capacity in work units per second.
func (h *Host) Speed() float64 { return h.cfg.Speed }

// shareFor returns the per-process execution rate with n runnable
// processes sharing the one CPU.
func (h *Host) shareFor(n int) float64 { return h.cfg.Speed / float64(n) }

// Clock returns the clock driving this host.
func (h *Host) Clock() vclock.Clock { return h.clock }

// Proc is a process on a simulated host.
type Proc struct {
	host    *Host
	pid     int
	name    string
	started time.Time

	// guarded by host.mu
	memory    int64
	cpuTime   time.Duration
	exited    bool
	computing *computeReq
}

type computeReq struct {
	remaining float64
	done      vclock.Event
}

// ProcInfo is a snapshot of one process-table entry, the unit ps/prstat
// style probes report.
type ProcInfo struct {
	PID    int
	Name   string
	Memory int64
}

// Spawn adds a process with the given name and resident memory to the
// process table.
func (h *Host) Spawn(name string, memory int64) *Proc {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(h.clock.Now())
	h.nextPID++
	p := &Proc{
		host:    h,
		pid:     h.nextPID,
		name:    name,
		started: h.clock.Now(),
		memory:  memory,
	}
	h.procs = append(h.procs, p) // pids only grow: the table stays sorted
	return p
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// Started returns the process start time (the paper reads it from the pid
// file timestamp).
func (p *Proc) Started() time.Time { return p.started }

// SetMemory updates the resident memory of the process.
func (p *Proc) SetMemory(bytes int64) {
	h := p.host
	h.mu.Lock()
	defer h.mu.Unlock()
	p.memory = bytes
}

// Compute blocks in virtual time until the host has delivered work CPU
// work-units to this process. While blocked the process is runnable and
// contributes to the run queue. Only one Compute may be outstanding per
// process.
func (p *Proc) Compute(work float64) error {
	if work <= 0 {
		return nil
	}
	h := p.host
	h.mu.Lock()
	if p.exited {
		h.mu.Unlock()
		return ErrProcessExited
	}
	if p.computing != nil {
		h.mu.Unlock()
		return fmt.Errorf("sim: process %d already computing", p.pid)
	}
	h.advanceLocked(h.clock.Now())
	req := &computeReq{remaining: work}
	p.computing = req
	h.scheduleLocked()
	h.mu.Unlock()
	vclock.Await(h.clock, &req.done)
	return nil
}

// Exit removes the process from the process table, cancelling any
// outstanding Compute.
func (p *Proc) Exit() {
	h := p.host
	h.mu.Lock()
	defer h.mu.Unlock()
	if p.exited {
		return
	}
	h.advanceLocked(h.clock.Now())
	p.exited = true
	if p.computing != nil {
		p.computing.done.Fire()
		p.computing = nil
	}
	i, _ := slices.BinarySearchFunc(h.procs, p.pid, func(q *Proc, pid int) int { return q.pid - pid })
	h.procs = slices.Delete(h.procs, i, i+1)
	h.scheduleLocked()
}

// CPUTime returns the cumulative CPU time consumed by the process.
func (p *Proc) CPUTime() time.Duration {
	h := p.host
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(h.clock.Now())
	return p.cpuTime
}

// LoadAvg returns the 1-, 5- and 15-minute load averages.
func (h *Host) LoadAvg() (l1, l5, l15 float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(h.clock.Now())
	return h.load[0], h.load[1], h.load[2]
}

// RunQueue returns the current number of runnable processes.
func (h *Host) RunQueue() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(h.clock.Now())
	return h.runnableLocked()
}

// NumProcs returns the number of processes in the process table.
func (h *Host) NumProcs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.procs)
}

// CPUTimes returns cumulative busy and idle CPU time since host creation.
// Sensors derive windowed utilisation from deltas, exactly as vmstat does.
func (h *Host) CPUTimes() (busy, idle time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(h.clock.Now())
	return h.busyTime, h.idleTime
}

// Memory returns total and used physical memory in bytes.
func (h *Host) Memory() (total, used int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	used = h.cfg.MemBase
	for _, p := range h.procs {
		used += p.memory
	}
	if used > h.cfg.MemTotal {
		used = h.cfg.MemTotal
	}
	return h.cfg.MemTotal, used
}

// Swap returns total and used virtual memory in bytes: twice the physical
// memory, into which memory demand beyond physical memory spills.
func (h *Host) Swap() (total, used int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	demand := h.cfg.MemBase
	for _, p := range h.procs {
		demand += p.memory
	}
	total = 2 * h.cfg.MemTotal
	return total, min(max(demand-h.cfg.MemTotal, 0), total)
}

// Procs appends a snapshot of the process table, sorted by pid, to dst and
// returns the result: a caller that passes its last snapshot back, cut to
// length zero, takes the next one without allocating.
func (h *Host) Procs(dst []ProcInfo) []ProcInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advanceLocked(h.clock.Now())
	for _, p := range h.procs {
		dst = append(dst, ProcInfo{PID: p.pid, Name: p.name, Memory: p.memory})
	}
	return dst
}

func (h *Host) runnableLocked() int {
	n := 0
	for _, p := range h.procs {
		if p.computing != nil {
			n++
		}
	}
	return n
}

// updateLoadLocked damps the load averages toward run-queue length q over
// dt seconds.
func (h *Host) updateLoadLocked(q float64, dt float64) {
	for i, tau := range loadTau {
		h.load[i] = q + (h.load[i]-q)*math.Exp(-dt/tau)
	}
}

// advanceLocked integrates CPU progress from lastAdv to now across segments
// with a constant runnable set, completing Compute requests at their exact
// finish instants.
func (h *Host) advanceLocked(now time.Time) {
	for {
		dt := now.Sub(h.lastAdv).Seconds()
		if dt <= 0 {
			return
		}
		var running []*Proc
		for _, p := range h.procs {
			if p.computing != nil {
				running = append(running, p)
			}
		}
		n := len(running)
		if n == 0 {
			h.updateLoadLocked(0, dt)
			h.idleTime += durationOf(dt)
			h.lastAdv = now
			return
		}
		share := h.shareFor(n) // work units/s per process
		step := dt
		for _, p := range running {
			if left := p.computing.remaining / share; left < step {
				step = left
			}
		}
		var finished []*Proc
		for _, p := range running {
			adv := share * step
			if p.computing.remaining-adv <= 1e-9 {
				adv = p.computing.remaining
				finished = append(finished, p)
			}
			p.computing.remaining -= adv
			p.cpuTime += durationOf(step * share / h.cfg.Speed)
		}
		h.busyTime += durationOf(step)
		h.updateLoadLocked(float64(n), step)
		h.lastAdv = h.lastAdv.Add(durationOf(step))
		if len(finished) == 0 {
			h.lastAdv = now
			return
		}
		for _, p := range finished {
			p.computing.done.Fire()
			p.computing = nil
		}
	}
}

// scheduleLocked arms a wake-up for the earliest Compute completion.
func (h *Host) scheduleLocked() {
	earliest := math.Inf(1)
	if n := h.runnableLocked(); n > 0 {
		share := h.shareFor(n)
		for _, p := range h.procs {
			if p.computing == nil {
				continue
			}
			if left := p.computing.remaining / share; left < earliest {
				earliest = left
			}
		}
	}
	h.wake.armLocked(h.clock, &h.mu, earliest, h.wakeLocked)
}

// wakeLocked is the wake-up's fire: progress up to at completes the
// earliest Compute, and the next completion is armed.
func (h *Host) wakeLocked(at time.Time) {
	h.advanceLocked(at)
	h.scheduleLocked()
}
