package workload

import (
	"sync"
	"time"

	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// CommOptions configures a communication load generator.
type CommOptions struct {
	// Rate is the target application data rate in bytes per second per
	// direction. The achieved rate is lower if the link is shared.
	Rate float64
	// Chunk is the message size; zero selects 1 MB.
	Chunk int64
	// Bidirectional also drives traffic the other way, which is what makes
	// migration INTO the busy host slow (its receive path is contended).
	Bidirectional bool
}

// CommLoad keeps two hosts communicating — the paper's workstation 2 and 5,
// exchanging data at 6.71-7.78 MB/s while policies pick destinations.
type CommLoad struct {
	net   *sim.Network
	clock vclock.Clock
	from  string
	to    string
	opts  CommOptions

	mu      sync.Mutex
	stop    *vclock.Event
	stopped vclock.WaitGroup
}

// NewCommLoad creates a generator between two hosts.
func NewCommLoad(clock vclock.Clock, net *sim.Network, from, to string, opts CommOptions) *CommLoad {
	if opts.Chunk <= 0 {
		opts.Chunk = 1 << 20
	}
	if opts.Rate <= 0 {
		opts.Rate = 7e6
	}
	return &CommLoad{net: net, clock: clock, from: from, to: to, opts: opts}
}

// Start launches the traffic. Starting a running generator is a no-op.
func (c *CommLoad) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = new(vclock.Event)
	c.stopped.Add(1)
	stop := c.stop
	vclock.Go(c.clock, func() { c.drive(stop, c.from, c.to) })
	if c.opts.Bidirectional {
		c.stopped.Add(1)
		vclock.Go(c.clock, func() { c.drive(stop, c.to, c.from) })
	}
}

// drive pushes chunks, pacing so the average application rate approaches
// the target: each chunk "covers" chunk/rate seconds of wall time; whatever
// the transfer itself did not use is slept off.
func (c *CommLoad) drive(stop *vclock.Event, from, to string) {
	defer c.stopped.Done()
	interval := time.Duration(float64(c.opts.Chunk) / c.opts.Rate * float64(time.Second))
	for {
		if stop.Fired() {
			return
		}
		start := c.clock.Now()
		if err := c.net.Transfer(from, to, c.opts.Chunk); err != nil {
			return
		}
		if remaining := interval - c.clock.Since(start); remaining > 0 {
			c.clock.Sleep(remaining)
		}
	}
}

// Stop halts the traffic and waits for in-flight chunks to finish.
func (c *CommLoad) Stop() {
	c.mu.Lock()
	stop := c.stop
	c.stop = nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	stop.Fire()
	c.stopped.Wait(c.clock)
}
