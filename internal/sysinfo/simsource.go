package sysinfo

import (
	"time"

	"autoresched/internal/sim"
)

// SimSource reads raw system information from a simulated host and the
// simulated network.
type SimSource struct {
	host   *sim.Host
	net    *sim.Network
	static Static
	rows   []sim.ProcInfo // the host's table as the last Procs read it
	procs  []ProcStat     // the last Procs; the next one reuses both arrays
}

// NewSimSource wraps a simulated host (and optionally its network; nil
// disables the communication fields).
func NewSimSource(host *sim.Host, net *sim.Network) *SimSource {
	memTotal, _ := host.Memory()
	return &SimSource{
		host: host,
		net:  net,
		static: Static{
			HostName: host.Name(),
			Addr:     "sim://" + host.Name(),
			OS:       "simos",
			Arch:     "sim",
			CPUSpeed: host.Speed(),
			MemTotal: memTotal,
		},
	}
}

// Static implements Source.
func (s *SimSource) Static() Static { return s.static }

// Now implements Source using the host's clock.
func (s *SimSource) Now() time.Time { return s.host.Clock().Now() }

// LoadAvg implements Source.
func (s *SimSource) LoadAvg() (l1, l5, l15 float64, err error) {
	l1, l5, l15 = s.host.LoadAvg()
	return l1, l5, l15, nil
}

// CPUTimes implements Source.
func (s *SimSource) CPUTimes() (busy, idle time.Duration, err error) {
	busy, idle = s.host.CPUTimes()
	return busy, idle, nil
}

// Memory implements Source.
func (s *SimSource) Memory() (total, used int64, err error) {
	total, used = s.host.Memory()
	return total, used, nil
}

// Swap implements Source.
func (s *SimSource) Swap() (total, used int64, err error) {
	total, used = s.host.Swap()
	return total, used, nil
}

// Disks implements Source. A simulated host has no mounts.
func (s *SimSource) Disks() ([]DiskUsage, error) { return nil, nil }

// NetCounters implements Source.
func (s *SimSource) NetCounters() (sent, recv int64, err error) {
	if s.net == nil {
		return 0, 0, nil
	}
	return s.net.Counters(s.host.Name())
}

// Sockets implements Source.
func (s *SimSource) Sockets() (int, error) {
	if s.net == nil {
		return 0, nil
	}
	return s.net.HostFlows(s.host.Name())
}

// Procs implements Source. The table is valid until the next Gather: that
// call refills the same array.
func (s *SimSource) Procs() ([]ProcStat, error) {
	s.rows = s.host.Procs(s.rows[:0])
	s.procs = s.procs[:0]
	for _, r := range s.rows {
		s.procs = append(s.procs, ProcStat{PID: r.PID, Name: r.Name, Memory: r.Memory})
	}
	return s.procs, nil
}

// RunQueue implements Source.
func (s *SimSource) RunQueue() (int, error) { return s.host.RunQueue(), nil }

var _ Source = (*SimSource)(nil)
