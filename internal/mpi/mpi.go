// Package mpi is a message-passing library modelled on the MPI-2 subset the
// paper's runtime depends on (Section 3.3): communicators with ranks, tagged
// point-to-point communication with wildcards, non-blocking operations,
// collective operations, communicator management (CreateGroup), and — the
// part the paper singles out, available in 2004 only in LAM/MPI — dynamic
// process management: Spawn, named ports (OpenPort), Connect/Accept, and
// intercommunicator Merge. Those primitives are exactly what the migration
// protocol uses to create a process on the destination machine and join the
// communicators "so that the migrating process and initialized process can
// communicate in one communicator".
//
// Ranks are goroutines; each is bound to a named host, and every payload
// that crosses hosts is charged to the configured Transport (the simulated
// network in experiments, a latency/bandwidth model, or nothing). Spawn
// charges a configurable latency, modelling LAM/MPI's slow dynamic process
// creation (~0.3 s in the paper's Section 5.2).
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autoresched/internal/vclock"
)

// Errors returned by communication operations.
var (
	// ErrProcExited reports communication with a rank that has finished.
	ErrProcExited = errors.New("mpi: peer process has exited")
	// ErrBadRank reports a rank outside the communicator.
	ErrBadRank = errors.New("mpi: rank out of range")
	// ErrBadTag reports a negative user tag (negative tags are reserved for
	// collectives).
	ErrBadTag = errors.New("mpi: user tags must be non-negative")
)

// Wildcards for Recv and Probe.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// Options configures a Universe.
type Options struct {
	// Clock drives time charging; nil selects the real clock.
	Clock vclock.Clock
	// Transport charges cross-host payloads; nil selects Instant.
	Transport Transport
	// SpawnLatency is charged by every dynamic process creation.
	SpawnLatency time.Duration
	// HostCheck, when set, vets every host targeted by dynamic process
	// creation; a non-nil result makes Spawn fail with a *HostFailedError
	// naming the host. Nil trusts every host name.
	HostCheck func(host string) error
}

// Universe owns the processes, ports, and transport of one MPI world — the
// analogue of an mpirun invocation plus its runtime environment.
type Universe struct {
	clock        vclock.Clock
	transport    Transport
	spawnLatency time.Duration
	hostCheck    func(host string) error

	mu     sync.Mutex
	nextID int64
	ports  map[string]*port
	groups map[int64]*sharedGroup
	wg     vclock.WaitGroup
}

// sharedGroup parks a spawned group handle so the non-spawning ranks of a
// SpawnMerge can claim it; the entry is removed once every claim is taken.
type sharedGroup struct {
	g      *group
	claims int
}

// NewUniverse creates a Universe.
func NewUniverse(opts Options) *Universe {
	if opts.Clock == nil {
		opts.Clock = vclock.Real()
	}
	if opts.Transport == nil {
		opts.Transport = Instant{}
	}
	return &Universe{
		clock:        opts.Clock,
		transport:    opts.Transport,
		spawnLatency: opts.SpawnLatency,
		hostCheck:    opts.HostCheck,
		ports:        make(map[string]*port),
		groups:       make(map[int64]*sharedGroup),
	}
}

// shareGroup parks a group handle under a fresh id for claims claimants.
// With no claimants the handle is not parked (the id is still unique).
func (u *Universe) shareGroup(g *group, claims int) int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.nextID++
	if claims > 0 {
		u.groups[u.nextID] = &sharedGroup{g: g, claims: claims}
	}
	return u.nextID
}

// claimGroup takes one claim on a parked group handle; nil if unknown.
func (u *Universe) claimGroup(id int64) *group {
	u.mu.Lock()
	defer u.mu.Unlock()
	sh, ok := u.groups[id]
	if !ok {
		return nil
	}
	sh.claims--
	if sh.claims <= 0 {
		delete(u.groups, id)
	}
	return sh.g
}

// Clock returns the universe clock.
func (u *Universe) Clock() vclock.Clock { return u.clock }

// Transport returns the universe's payload transport.
func (u *Universe) Transport() Transport { return u.transport }

func (u *Universe) nextCtx(prefix string) string {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.nextID++
	return fmt.Sprintf("%s-%d", prefix, u.nextID)
}

// Env is what a process main receives: its world communicator, the parent
// intercommunicator when it was spawned (MPI_Comm_get_parent), and the host
// it runs on.
type Env struct {
	U      *Universe
	Host   string
	World  *Comm
	Parent *Comm

	ep *endpoint
}

// Main is a process entry point.
type Main func(env *Env) error

// Kill closes the process's mailbox ahead of normal termination: blocked
// and future receives return ErrProcExited, and peers delivering to it fail
// the same way. Fault injection uses it to model a host crash taking a rank
// down mid-protocol; killing an already-finished process is a no-op.
func (env *Env) Kill() { env.ep.close() }

// Start launches like Run but returns immediately; the returned Wait
// function blocks and yields per-rank errors.
func (u *Universe) Start(hosts []string, main Main) (wait func() []error) {
	_, errs := u.launch(hosts, nil, main)
	return errs.wait
}

// Wait blocks until every process ever launched in the universe has
// finished.
func (u *Universe) Wait() { u.wg.Wait(u.clock) }

type errSet struct {
	clock vclock.Clock
	wg    vclock.WaitGroup
	mu    sync.Mutex
	errs  []error
}

func (e *errSet) wait() []error {
	e.wg.Wait(e.clock)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.errs
}

// launch starts a group of processes sharing a fresh world; parent is the
// spawning group (nil for a root world).
func (u *Universe) launch(hosts []string, parent *group, main Main) ([]*Env, *errSet) {
	world := &group{ctx: u.nextCtx("world"), hosts: append([]string(nil), hosts...)}
	world.eps = make([]*endpoint, len(hosts))
	for i := range hosts {
		world.eps[i] = newEndpoint(u.clock, hosts[i])
	}

	var interCtx string
	if parent != nil {
		interCtx = u.nextCtx("intercomm")
	}

	envs := make([]*Env, len(hosts))
	errs := &errSet{clock: u.clock, errs: make([]error, len(hosts))}
	for i := range hosts {
		env := &Env{
			U:     u,
			Host:  hosts[i],
			ep:    world.eps[i],
			World: &Comm{u: u, group: world, rank: i, self: world.eps[i]},
		}
		if parent != nil {
			env.Parent = &Comm{
				u: u, group: world, remote: parent, ctx: interCtx,
				rank: i, self: world.eps[i],
			}
		}
		envs[i] = env
		errs.wg.Add(1)
		u.wg.Add(1)
		vclock.Go(u.clock, func() {
			defer u.wg.Done()
			defer errs.wg.Done()
			defer env.ep.close()
			err := main(env)
			errs.mu.Lock()
			errs.errs[i] = err
			errs.mu.Unlock()
		})
	}

	if parent != nil {
		// Hand the parent its side of the intercommunicator through the
		// spawn result; see Env.Spawn.
		world.parentInterCtx = interCtx
	}
	return envs, errs
}
