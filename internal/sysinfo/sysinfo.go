// Package sysinfo gathers the static and dynamic system information the
// monitor entities consume (paper Section 3.1).
//
// The paper gathers dynamic information through shell scripts wrapping
// vmstat, prstat, ps, netstat and df on Solaris. Here a Source abstracts
// where raw numbers come from — a simulated host (SimSource) or the local
// Linux /proc filesystem (ProcSource) — and a Sensor turns consecutive raw
// readings into the windowed Snapshot the rules evaluate (CPU idle
// percentage over the last interval, KB/s network rates, and so on), exactly
// the way vmstat derives percentages from counter deltas.
package sysinfo

import (
	"fmt"
	"time"
)

// Static holds the host information that does not change during the life of
// a monitoring entity; it is sent once, at registration (Section 3.1).
type Static struct {
	HostName string  `xml:"hostName"`
	Addr     string  `xml:"addr"`
	OS       string  `xml:"os"`
	Arch     string  `xml:"arch"`
	CPUSpeed float64 `xml:"cpuSpeed"` // work units per second
	MemTotal int64   `xml:"memTotal"` // bytes
}

// DiskUsage is the disk state of one mount point.
type DiskUsage struct {
	Path    string
	UsedPct float64
}

// Snapshot is one gathering of dynamic information: the four categories of
// Section 3.1 (processor, memory, disk, communication) plus the process
// table size the paper's policies threshold on.
type Snapshot struct {
	Host string
	Time time.Time

	// Processor utilisation and load.
	Load1, Load5, Load15 float64
	CPUIdlePct           float64 // percentage of the window the CPU was idle
	CPUUtilPct           float64 // 100 - CPUIdlePct
	RunQueue             int
	NumProcs             int

	// Memory state.
	MemTotal, MemAvail int64
	MemAvailPct        float64
	SwapAvail          int64
	SwapAvailPct       float64

	// Disk usage.
	Disks []DiskUsage

	// Communication.
	NetSentBps float64 // bytes/s over the window
	NetRecvBps float64
	Sockets    int // sockets in ESTABLISHED state

	// Process table (prstat/ps view), valid until the sensor's next Gather.
	Procs []ProcStat
}

// ProcStat is one process-table row.
type ProcStat struct {
	PID    int
	Name   string
	Memory int64
}

// Source provides raw counters and tables for one host.
type Source interface {
	Static() Static
	// Now returns the source's notion of the current time; windowed rates
	// use it as the sample timestamp.
	Now() time.Time
	LoadAvg() (l1, l5, l15 float64, err error)
	// CPUTimes returns cumulative busy and idle time.
	CPUTimes() (busy, idle time.Duration, err error)
	Memory() (total, used int64, err error)
	Swap() (total, used int64, err error)
	Disks() ([]DiskUsage, error)
	// NetCounters returns cumulative bytes sent and received.
	NetCounters() (sent, recv int64, err error)
	Sockets() (established int, err error)
	// Procs returns the process table, sorted by pid. The slice may be
	// the source's own, valid until the next call.
	Procs() ([]ProcStat, error)
	RunQueue() (int, error)
}

// Sensor derives windowed Snapshots from consecutive Source readings.
// The first Gather establishes the baseline; rate fields of the first
// snapshot are zero.
type Sensor struct {
	src Source

	primed   bool
	prevTime time.Time
	prevBusy time.Duration
	prevIdle time.Duration
	prevSent int64
	prevRecv int64
}

// NewSensor returns a Sensor reading from src.
func NewSensor(src Source) *Sensor { return &Sensor{src: src} }

// Gather takes one reading and derives the windowed snapshot since the
// previous call.
func (s *Sensor) Gather() (Snapshot, error) {
	var snap Snapshot
	st := s.src.Static()
	snap.Host = st.HostName
	snap.Time = s.src.Now()

	var err error
	if snap.Load1, snap.Load5, snap.Load15, err = s.src.LoadAvg(); err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: load: %w", err)
	}
	busy, idle, err := s.src.CPUTimes()
	if err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: cpu: %w", err)
	}
	memTotal, memUsed, err := s.src.Memory()
	if err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: memory: %w", err)
	}
	snap.MemTotal, snap.MemAvail = memTotal, memTotal-memUsed
	if memTotal > 0 {
		snap.MemAvailPct = 100 * float64(snap.MemAvail) / float64(memTotal)
	}
	swapTotal, swapUsed, err := s.src.Swap()
	if err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: swap: %w", err)
	}
	snap.SwapAvail = swapTotal - swapUsed
	if swapTotal > 0 {
		snap.SwapAvailPct = 100 * float64(snap.SwapAvail) / float64(swapTotal)
	}
	if snap.Disks, err = s.src.Disks(); err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: disks: %w", err)
	}
	sent, recv, err := s.src.NetCounters()
	if err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: net: %w", err)
	}
	if snap.Sockets, err = s.src.Sockets(); err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: sockets: %w", err)
	}
	if snap.Procs, err = s.src.Procs(); err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: procs: %w", err)
	}
	snap.NumProcs = len(snap.Procs)
	if snap.RunQueue, err = s.src.RunQueue(); err != nil {
		return Snapshot{}, fmt.Errorf("sysinfo: runqueue: %w", err)
	}

	if s.primed {
		window := snap.Time.Sub(s.prevTime)
		if window > 0 {
			dBusy := busy - s.prevBusy
			dIdle := idle - s.prevIdle
			if total := dBusy + dIdle; total > 0 {
				snap.CPUIdlePct = 100 * float64(dIdle) / float64(total)
			} else {
				snap.CPUIdlePct = 100
			}
			secs := window.Seconds()
			snap.NetSentBps = float64(sent-s.prevSent) / secs
			snap.NetRecvBps = float64(recv-s.prevRecv) / secs
		} else {
			snap.CPUIdlePct = 100
		}
	} else {
		snap.CPUIdlePct = 100
		s.primed = true
	}
	snap.CPUUtilPct = 100 - snap.CPUIdlePct

	s.prevTime = snap.Time
	s.prevBusy, s.prevIdle = busy, idle
	s.prevSent, s.prevRecv = sent, recv
	return snap, nil
}
