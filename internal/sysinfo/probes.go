package sysinfo

import (
	"fmt"
	"strings"
	"sync"
)

// ProbeFunc extracts one numeric quantity from a snapshot. param carries the
// rule file's rl_param value (for example the socket state to count or the
// mount point to inspect).
type ProbeFunc func(snap Snapshot, param string) (float64, error)

// Probes maps the script names referenced by rule files (rl_script) to
// probe functions. The paper fires actual shell scripts (processorStatus.sh,
// ntStatIpv4.sh, ...); here the same names dispatch to functions over the
// gathered snapshot, keeping rule files portable across simulated and real
// sources.
type Probes struct {
	mu sync.RWMutex
	m  map[string]ProbeFunc
}

// NewProbes returns an empty probe registry.
func NewProbes() *Probes { return &Probes{m: make(map[string]ProbeFunc)} }

// Register adds or replaces a probe under the given script name.
func (p *Probes) Register(script string, fn ProbeFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m[script] = fn
}

// Eval runs the probe registered under script.
func (p *Probes) Eval(script string, snap Snapshot, param string) (float64, error) {
	p.mu.RLock()
	fn, ok := p.m[script]
	p.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("sysinfo: no probe registered for script %q", script)
	}
	return fn(snap, param)
}

// StandardProbes returns a registry with the probes used by the paper's
// rules (Figure 3) plus the additional quantities its policies threshold on
// (Section 5.3).
func StandardProbes() *Probes {
	p := NewProbes()

	// processorStatus.sh: CPU idle time percentage (vmstat). Rule 1
	// thresholds: busy below 50, overloaded below 45.
	p.Register("processorStatus.sh", func(s Snapshot, _ string) (float64, error) {
		return s.CPUIdlePct, nil
	})

	// ntStatIpv4.sh: number of IPv4 sockets in the state given by rl_param
	// (netstat). Only ESTABLISHED is tracked by the sources.
	p.Register("ntStatIpv4.sh", func(s Snapshot, param string) (float64, error) {
		switch strings.ToUpper(strings.TrimSpace(param)) {
		case "", "ESTABLISHED":
			return float64(s.Sockets), nil
		default:
			return 0, fmt.Errorf("sysinfo: socket state %q not tracked", param)
		}
	})

	// loadAvg.sh: the 1-, 5- or 15-minute load average (uptime/vmstat).
	p.Register("loadAvg.sh", func(s Snapshot, param string) (float64, error) {
		switch strings.TrimSpace(param) {
		case "", "1":
			return s.Load1, nil
		case "5":
			return s.Load5, nil
		case "15":
			return s.Load15, nil
		default:
			return 0, fmt.Errorf("sysinfo: unknown load window %q", param)
		}
	})

	// numProcs.sh: number of processes (ps).
	p.Register("numProcs.sh", func(s Snapshot, _ string) (float64, error) {
		return float64(s.NumProcs), nil
	})

	// runQueue.sh: current run-queue length.
	p.Register("runQueue.sh", func(s Snapshot, _ string) (float64, error) {
		return float64(s.RunQueue), nil
	})

	// memAvailPct.sh / swapAvailPct.sh: available memory percentages.
	p.Register("memAvailPct.sh", func(s Snapshot, _ string) (float64, error) {
		return s.MemAvailPct, nil
	})
	p.Register("swapAvailPct.sh", func(s Snapshot, _ string) (float64, error) {
		return s.SwapAvailPct, nil
	})

	// diskUsedPct.sh: used percentage of the mount point in rl_param (df).
	p.Register("diskUsedPct.sh", func(s Snapshot, param string) (float64, error) {
		path := strings.TrimSpace(param)
		if path == "" {
			path = "/"
		}
		for _, d := range s.Disks {
			if d.Path == path {
				return d.UsedPct, nil
			}
		}
		return 0, fmt.Errorf("sysinfo: no mount point %q", path)
	})

	// netFlow.sh: communication flow in MB/s over the last window; rl_param
	// selects in, out, total or max. The Table 2 policies threshold this in
	// MB/s (5 MB/s source, 3 MB/s destination).
	p.Register("netFlow.sh", func(s Snapshot, param string) (float64, error) {
		const mb = 1e6
		in, out := s.NetRecvBps/mb, s.NetSentBps/mb
		switch strings.ToLower(strings.TrimSpace(param)) {
		case "in":
			return in, nil
		case "out":
			return out, nil
		case "", "max":
			if in > out {
				return in, nil
			}
			return out, nil
		case "total":
			return in + out, nil
		default:
			return 0, fmt.Errorf("sysinfo: unknown netFlow direction %q", param)
		}
	})

	return p
}
