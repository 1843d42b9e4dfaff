package core

import (
	"fmt"
	"sync"

	"autoresched/internal/hpcm"
	"autoresched/internal/sim"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// The testbed the runtime runs on: simulated hosts joined by a simulated
// interconnect, the stand-in for the paper's 64-node Sun Blade 100 cluster
// on 100 Mbps Ethernet. A Cluster also adapts the host model to the
// interfaces the upper layers consume: sysinfo sources for the monitors and
// an hpcm.HostBinder for migration-enabled processes.

// SunBlade100 approximates the paper's workstation: one 500 MHz
// UltraSPARC-IIe with 128 MB of memory. Speed is in abstract work units per
// second; 500e6 makes one unit one cycle.
var SunBlade100 = sim.Config{
	Speed:    500e6,
	MemTotal: 128 << 20,
	MemBase:  24 << 20,
}

// Cluster is a set of simulated hosts joined by a simulated network.
type Cluster struct {
	clock vclock.Clock
	net   *sim.Network

	mu      sync.Mutex
	hosts   map[string]*sim.Host
	sources map[string]*sysinfo.SimSource
}

// NewCluster creates an empty cluster whose hosts and network run on clock,
// with NICs of bandwidth bytes/s (zero selects 100 Mbps).
func NewCluster(clock vclock.Clock, bandwidth float64) *Cluster {
	return &Cluster{
		clock:   clock,
		net:     sim.NewNetwork(clock, sim.Options{DefaultBandwidth: bandwidth}),
		hosts:   make(map[string]*sim.Host),
		sources: make(map[string]*sysinfo.SimSource),
	}
}

// Clock returns the cluster clock.
func (c *Cluster) Clock() vclock.Clock { return c.clock }

// Close ends the simulation on an Auto cluster clock (vclock.Auto.Close):
// the goroutine driving it calls Close last, once the system on the
// cluster is stopped, and the clock lets what still runs on it run out. On
// other clocks it does nothing.
func (c *Cluster) Close() {
	if a, ok := c.clock.(*vclock.Auto); ok {
		a.Close()
	}
}

// Net returns the simulated network.
func (c *Cluster) Net() *sim.Network { return c.net }

// AddHost creates a host. A zero Config gets Sun Blade 100 characteristics.
func (c *Cluster) AddHost(name string, cfg sim.Config) (*sim.Host, error) {
	if cfg == (sim.Config{}) {
		cfg = SunBlade100
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.hosts[name]; ok {
		return nil, fmt.Errorf("cluster: host %q already exists", name)
	}
	if err := c.net.AddHost(name); err != nil {
		return nil, err
	}
	h := sim.NewHost(c.clock, name, cfg)
	c.hosts[name] = h
	c.sources[name] = sysinfo.NewSimSource(h, c.net)
	return h, nil
}

// AddHosts creates n hosts named prefix1..prefixN with identical
// characteristics and returns their names.
func (c *Cluster) AddHosts(prefix string, n int, cfg sim.Config) ([]string, error) {
	names := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if _, err := c.AddHost(name, cfg); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// Host returns a host by name.
func (c *Cluster) Host(name string) (*sim.Host, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[name]
	return h, ok
}

// Source returns the host's system-information source. The source is
// shared, so windowed sensors on top of it see consistent counters.
func (c *Cluster) Source(name string) (*sysinfo.SimSource, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sources[name]
	return s, ok
}

// HostCheck vets a host for dynamic process creation against the simulated
// network's liveness state — the cluster-backed implementation of
// mpi.Options.HostCheck, so spawning onto a crashed host fails with a typed
// mid-spawn error instead of a later transport error.
func (c *Cluster) HostCheck(host string) error {
	if _, ok := c.Host(host); !ok {
		return fmt.Errorf("cluster: unknown host %q", host)
	}
	if c.net.HostDown(host) {
		return sim.ErrHostDown
	}
	return nil
}

// Attach implements hpcm.HostBinder: migration-enabled processes join the
// simulated host's process table and charge CPU through it.
func (c *Cluster) Attach(host, procName string, memory int64) (hpcm.HostProc, error) {
	h, ok := c.Host(host)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown host %q", host)
	}
	return h.Spawn(procName, memory), nil
}

var _ hpcm.HostBinder = (*Cluster)(nil)
