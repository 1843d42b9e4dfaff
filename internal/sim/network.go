package sim

// The paper's testbed used 100 Mbps switched Ethernet with exclusive use;
// its evaluation depends on three network observables: per-host send/receive
// byte counters sampled every 10 seconds (Figures 6 and 8), the transfer
// time of the migrating process state (Table 2, "migration time"), and a
// background flow between two workstations running at 6.71-7.78 MB/s that
// the communication-aware policy must notice (Table 2, policy 3).
//
// The model: every host owns a full-duplex NIC with a configurable capacity
// in bytes per second. A transfer from A to B is a flow; at any instant a
// flow's rate is the minimum of its sender's transmit capacity and its
// receiver's receive capacity, each divided equally among the flows using
// that direction of that NIC. Rates are piecewise constant between flow
// arrivals and departures, and progress is integrated exactly across those
// segments, so byte counters and completion times are deterministic given a
// clock.
//
// A flow's rate depends only on the population of its own two NIC
// directions, so each NIC keeps its send and receive flow sets and a
// membership change recomputes just the affected sets — at 512 hosts a
// transfer starting on one link no longer touches every flow in the
// cluster.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"autoresched/internal/vclock"
)

// Errors returned by transfers.
var (
	ErrUnknownHost = errors.New("sim: unknown host")
	ErrHostDown    = errors.New("sim: host is down")
	ErrPartitioned = errors.New("sim: hosts are partitioned")
)

// Options configures a Network.
type Options struct {
	// DefaultBandwidth is the NIC capacity, in bytes per second, given to
	// hosts added without an explicit capacity. The paper's 100 Mbps
	// Ethernet is 12.5e6 B/s; zero selects that value.
	DefaultBandwidth float64
}

// Ethernet100Mbps is the NIC capacity of the paper's testbed in bytes/s.
const Ethernet100Mbps = 100e6 / 8

// Network simulates the interconnect between named hosts.
type Network struct {
	clock vclock.Clock

	mu      sync.Mutex
	opts    Options
	hosts   map[string]*nic
	flows   map[*flow]struct{}
	factors map[linkKey]float64 // degraded host pairs: rate multiplier < 1
	parts   map[linkKey]bool    // partitioned host pairs
	lastAdv time.Time
	// scratch is the reusable finished-flow buffer of advanceLocked: the
	// rate-advance loop runs on every transfer start/finish and every
	// fault-plan link change, and must not allocate per segment.
	scratch []*flow
	wake    wakeup
}

// linkKey names an unordered host pair; degradation and partition apply to
// both directions of the link.
type linkKey struct{ a, b string }

func link(x, y string) linkKey {
	if x > y {
		x, y = y, x
	}
	return linkKey{x, y}
}

type nic struct {
	name     string
	capacity float64 // bytes/s each direction
	down     bool

	sentBytes float64
	recvBytes float64
	// sendFlows and recvFlows are the flows using each direction of this
	// NIC — the scope of a fair-share recomputation when one arrives or
	// departs.
	sendFlows map[*flow]struct{}
	recvFlows map[*flow]struct{}
}

type flow struct {
	from, to *nic
	total    float64
	done     float64
	rate     float64      // current bytes/s, recomputed on membership change
	finished vclock.Event // fires once the flow is over, err its outcome
	err      error
}

// New creates an empty network driven by clock.
func NewNetwork(clock vclock.Clock, opts Options) *Network {
	if opts.DefaultBandwidth <= 0 {
		opts.DefaultBandwidth = Ethernet100Mbps
	}
	return &Network{
		clock:   clock,
		opts:    opts,
		hosts:   make(map[string]*nic),
		flows:   make(map[*flow]struct{}),
		factors: make(map[linkKey]float64),
		parts:   make(map[linkKey]bool),
		lastAdv: clock.Now(),
	}
}

// AddHost registers a host with the default NIC capacity. Adding an existing
// host is an error.
func (n *Network) AddHost(name string) error {
	return n.AddHostBandwidth(name, n.opts.DefaultBandwidth)
}

// AddHostBandwidth registers a host with an explicit NIC capacity in
// bytes per second.
func (n *Network) AddHostBandwidth(name string, capacity float64) error {
	if capacity <= 0 {
		return fmt.Errorf("sim: non-positive capacity %v for host %q", capacity, name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[name]; ok {
		return fmt.Errorf("sim: host %q already exists", name)
	}
	n.hosts[name] = &nic{
		name:      name,
		capacity:  capacity,
		sendFlows: make(map[*flow]struct{}),
		recvFlows: make(map[*flow]struct{}),
	}
	return nil
}

// SetDown marks a host down or up. Taking a host down fails every flow it
// participates in.
func (n *Network) SetDown(name string, down bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	if !ok {
		return ErrUnknownHost
	}
	n.advanceLocked(n.clock.Now())
	h.down = down
	if down {
		for _, f := range flowsOn(h) {
			n.finishLocked(f, ErrHostDown)
			n.recomputeSideLocked(f.from.sendFlows)
			n.recomputeSideLocked(f.to.recvFlows)
		}
	}
	n.scheduleLocked()
	return nil
}

// HostDown reports whether a host is currently marked down. Unknown hosts
// count as down, so callers can use it directly as a liveness gate.
func (n *Network) HostDown(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	return !ok || h.down
}

// SetLinkFactor degrades (or restores) the link between two hosts: flows
// between them run at factor times their fair-share rate. factor 1 restores
// full capacity; factor must be positive (a dead link is a partition, not a
// zero factor, so in-flight transfers fail fast instead of stalling
// forever). In-flight flows pick up the new rate immediately.
func (n *Network) SetLinkFactor(a, b string, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("sim: non-positive link factor %v", factor)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ha, ok := n.hosts[a]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, a)
	}
	hb, ok := n.hosts[b]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, b)
	}
	n.advanceLocked(n.clock.Now())
	if factor >= 1 {
		delete(n.factors, link(a, b))
	} else {
		n.factors[link(a, b)] = factor
	}
	for _, f := range flowsBetween(ha, hb) {
		n.recomputeFlowLocked(f)
	}
	n.scheduleLocked()
	return nil
}

// SetPartitioned cuts (or heals) the link between two hosts. Partitioning
// fails every in-flight flow between them with ErrPartitioned, and new
// transfers between them fail immediately until the partition heals. Other
// links are unaffected — unlike SetDown, each host keeps talking to the
// rest of the cluster.
func (n *Network) SetPartitioned(a, b string, partitioned bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	ha, ok := n.hosts[a]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, a)
	}
	hb, ok := n.hosts[b]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, b)
	}
	n.advanceLocked(n.clock.Now())
	if partitioned {
		n.parts[link(a, b)] = true
		for _, f := range flowsBetween(ha, hb) {
			n.finishLocked(f, ErrPartitioned)
			n.recomputeSideLocked(f.from.sendFlows)
			n.recomputeSideLocked(f.to.recvFlows)
		}
	} else {
		delete(n.parts, link(a, b))
	}
	n.scheduleLocked()
	return nil
}

// Partitioned reports whether two hosts are currently partitioned.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parts[link(a, b)]
}

// Transfer moves size bytes from one host to another, blocking in virtual
// time until the transfer completes. It returns ErrHostDown if either end
// is (or goes) down, and ErrPartitioned if the pair is partitioned.
func (n *Network) Transfer(from, to string, size int64) error {
	if size < 0 {
		return fmt.Errorf("sim: negative transfer size %d", size)
	}
	n.mu.Lock()
	src, ok := n.hosts[from]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownHost, from)
	}
	dst, ok := n.hosts[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownHost, to)
	}
	if src.down || dst.down {
		n.mu.Unlock()
		return ErrHostDown
	}
	if n.parts[link(from, to)] {
		n.mu.Unlock()
		return ErrPartitioned
	}
	if from == to || size == 0 {
		// Loopback and empty transfers are free of NIC time.
		n.mu.Unlock()
		return nil
	}
	n.advanceLocked(n.clock.Now())
	f := &flow{from: src, to: dst, total: float64(size)}
	n.flows[f] = struct{}{}
	src.sendFlows[f] = struct{}{}
	dst.recvFlows[f] = struct{}{}
	// Only the sender's other transmissions and the receiver's other
	// receptions see their fair share change.
	n.recomputeSideLocked(src.sendFlows)
	n.recomputeSideLocked(dst.recvFlows)
	n.scheduleLocked()
	n.mu.Unlock()
	vclock.Await(n.clock, &f.finished)
	return f.err
}

// Counters returns the cumulative bytes sent and received by a host.
func (n *Network) Counters(host string) (sent, recv int64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[host]
	if !ok {
		return 0, 0, ErrUnknownHost
	}
	n.advanceLocked(n.clock.Now())
	return int64(h.sentBytes), int64(h.recvBytes), nil
}

// HostFlows reports the number of in-flight transfers with an endpoint on
// host. It backs the netstat-style "sockets in ESTABLISHED state" probe.
func (n *Network) HostFlows(host string) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[host]
	if !ok {
		return 0, ErrUnknownHost
	}
	return len(h.sendFlows) + len(h.recvFlows), nil
}

// flowsOn snapshots the flows with an endpoint on h (callers mutate the
// sets while iterating).
func flowsOn(h *nic) []*flow {
	out := make([]*flow, 0, len(h.sendFlows)+len(h.recvFlows))
	for f := range h.sendFlows {
		out = append(out, f)
	}
	for f := range h.recvFlows {
		out = append(out, f)
	}
	return out
}

// flowsBetween snapshots the flows running between a and b, either
// direction.
func flowsBetween(a, b *nic) []*flow {
	var out []*flow
	for f := range a.sendFlows {
		if f.to == b {
			out = append(out, f)
		}
	}
	for f := range b.sendFlows {
		if f.to == a {
			out = append(out, f)
		}
	}
	return out
}

// finishLocked removes a flow and signals its waiter. The caller recomputes
// the affected NIC sides afterwards.
func (n *Network) finishLocked(f *flow, err error) {
	if _, ok := n.flows[f]; !ok {
		return
	}
	delete(n.flows, f)
	delete(f.from.sendFlows, f)
	delete(f.to.recvFlows, f)
	f.err = err
	f.finished.Fire()
}

// recomputeFlowLocked refreshes one flow's rate from its two NIC directions.
//
//hot:path
func (n *Network) recomputeFlowLocked(f *flow) {
	sendShare := f.from.capacity / float64(len(f.from.sendFlows))
	recvShare := f.to.capacity / float64(len(f.to.recvFlows))
	f.rate = math.Min(sendShare, recvShare)
	if factor, ok := n.factors[link(f.from.name, f.to.name)]; ok {
		f.rate *= factor
	}
}

// recomputeSideLocked refreshes every flow sharing one direction of one NIC
// — the whole blast radius of an arrival or departure there. Must be called
// with progress already advanced to now.
//
//hot:path
func (n *Network) recomputeSideLocked(side map[*flow]struct{}) {
	for f := range side {
		n.recomputeFlowLocked(f)
	}
}

// advanceLocked integrates flow progress from lastAdv to now, completing
// flows exactly at their finish instants (the freed capacity is handed to
// the finished flows' NIC neighbours before later segments are integrated).
//
//hot:path
func (n *Network) advanceLocked(now time.Time) {
	for {
		dt := now.Sub(n.lastAdv).Seconds()
		if dt <= 0 || len(n.flows) == 0 {
			n.lastAdv = now
			return
		}
		// Earliest completion within this segment.
		step := dt
		for f := range n.flows {
			if f.rate <= 0 {
				continue
			}
			if left := (f.total - f.done) / f.rate; left < step {
				step = left
			}
		}
		finished := n.scratch[:0]
		for f := range n.flows {
			adv := f.rate * step
			if f.done+adv >= f.total {
				adv = f.total - f.done
				finished = append(finished, f) //lint:allow hotalloc scratch buffer retains capacity across segments
			}
			f.done += adv
			f.from.sentBytes += adv
			f.to.recvBytes += adv
		}
		n.lastAdv = n.lastAdv.Add(time.Duration(step * float64(time.Second)))
		if len(finished) == 0 {
			n.lastAdv = now
			return
		}
		for _, f := range finished {
			n.finishLocked(f, nil)
		}
		for _, f := range finished {
			n.recomputeSideLocked(f.from.sendFlows)
			n.recomputeSideLocked(f.to.recvFlows)
		}
		n.scratch = finished[:0]
	}
}

// scheduleLocked arms a wake-up for the earliest flow completion so that
// waiters are signalled without polling.
func (n *Network) scheduleLocked() {
	earliest := math.Inf(1)
	for f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if left := (f.total - f.done) / f.rate; left < earliest {
			earliest = left
		}
	}
	n.wake.armLocked(n.clock, &n.mu, earliest, n.wakeLocked)
}

// wakeLocked is the wake-up's fire: progress up to at completes the
// earliest flows, and the next completion is armed.
func (n *Network) wakeLocked(at time.Time) {
	n.advanceLocked(at)
	n.scheduleLocked()
}
