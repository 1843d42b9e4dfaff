package workload

import (
	"math/rand"
	"sync"
	"time"

	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// LoadOptions configures a background CPU load generator.
type LoadOptions struct {
	// Workers is the number of concurrently cycling processes.
	Workers int
	// Duty is each worker's busy fraction in (0, 1]. Workers alternate
	// Duty*Period of computation with (1-Duty)*Period of sleep, so the
	// host's steady-state load average approaches Workers*Duty.
	Duty float64
	// Period is one busy/idle cycle; zero selects 4 seconds.
	Period time.Duration
	// Seed feeds the jitter that desynchronises the workers.
	Seed int64
	// Name labels the generator's processes in the process table.
	Name string
}

// loadJitter randomises each cycle's phase by up to this fraction of
// Period, desynchronising the workers.
const loadJitter = 0.3

// LoadGen drives a host with synthetic background load — the paper's
// "additional application, which causes a dramatic load increase".
type LoadGen struct {
	host *sim.Host
	opts LoadOptions

	mu      sync.Mutex
	stop    *vclock.Event
	procs   []*sim.Proc
	stopped vclock.WaitGroup
}

// NewLoadGen creates a generator for host. Defaults: 1 worker, duty 0.25
// (the paper's idle-workstation baseline load of ~0.25), period 4 s.
func NewLoadGen(host *sim.Host, opts LoadOptions) *LoadGen {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Duty <= 0 || opts.Duty > 1 {
		opts.Duty = 0.25
	}
	if opts.Period <= 0 {
		opts.Period = 4 * time.Second
	}
	if opts.Name == "" {
		opts.Name = "bgload"
	}
	return &LoadGen{host: host, opts: opts}
}

// Start launches the workers. Starting a running generator is a no-op.
func (g *LoadGen) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stop != nil {
		return
	}
	g.stop = new(vclock.Event)
	clock := g.host.Clock()
	for i := 0; i < g.opts.Workers; i++ {
		g.stopped.Add(1)
		rng := rand.New(rand.NewSource(g.opts.Seed + int64(i)))
		stop := g.stop
		proc := g.host.Spawn(g.opts.Name, 2<<20)
		g.procs = append(g.procs, proc)
		vclock.Go(clock, func() {
			defer g.stopped.Done()
			defer proc.Exit()
			busyWork := g.opts.Duty * g.opts.Period.Seconds() * g.host.Speed()
			for {
				if stop.Fired() {
					return
				}
				// Stop unblocks an in-flight Compute by exiting the process.
				if err := proc.Compute(busyWork); err != nil {
					return
				}
				idle := time.Duration((1 - g.opts.Duty) * float64(g.opts.Period))
				jitter := time.Duration((rng.Float64() - 0.5) * loadJitter * float64(g.opts.Period))
				if d := idle + jitter; d > 0 && vclock.Wait(clock, d, stop) != nil {
					return
				}
			}
		})
	}
}

// Stop halts the workers — interrupting in-flight computation and sleeps —
// and waits for them to leave the process table.
func (g *LoadGen) Stop() {
	g.mu.Lock()
	stop := g.stop
	procs := g.procs
	g.stop = nil
	g.procs = nil
	g.mu.Unlock()
	if stop == nil {
		return
	}
	stop.Fire()
	for _, p := range procs {
		p.Exit()
	}
	g.stopped.Wait(g.host.Clock())
}
