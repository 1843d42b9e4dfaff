package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"autoresched/internal/vclock"
)

// This file implements the MPI-2 dynamic process management the paper's
// migration protocol is built on: MPI_Comm_spawn, MPI_Open_port,
// MPI_Comm_accept / MPI_Comm_connect, and MPI_Intercomm_merge. In 2004 only
// LAM/MPI implemented these; the paper notes MPICH-2 and Sun MPI could not
// be used for exactly this reason.

// Spawn launches len(hosts) new processes running main and returns the
// intercommunicator whose remote group is the children. The children see
// the parent through env.Parent (MPI_Comm_get_parent); their local world is
// a fresh communicator of the siblings.
//
// Spawn charges the universe's SpawnLatency, modelling LAM/MPI's slow
// dynamic process creation. It is called by a single process (the paper's
// migrating process is a singleton communicator); the returned handle
// belongs to the caller.
func (env *Env) Spawn(hosts []string, main Main) (*Comm, error) {
	return env.spawnFrom(env.World, hosts, main)
}

// HostFailedError reports dynamic process creation onto a dead or failing
// host. Control planes that spawn as part of a larger protocol (elastic
// resize, migration) match it with errors.As to tell "the target host died"
// — retry elsewhere, abort cleanly — from transport or port errors.
type HostFailedError struct {
	Host string
	Err  error
}

func (e *HostFailedError) Error() string {
	return fmt.Sprintf("mpi: spawn on failed host %q: %v", e.Host, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *HostFailedError) Unwrap() error { return e.Err }

// spawnFrom is Spawn with an explicit parent communicator: the children's
// Parent intercommunicator addresses comm's group rather than the original
// world, so a grown communicator can keep growing.
func (env *Env) spawnFrom(comm *Comm, hosts []string, main Main) (*Comm, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("mpi: Spawn with no hosts")
	}
	u := env.U
	if u.spawnLatency > 0 {
		u.clock.Sleep(u.spawnLatency)
	}
	// Vet the targets after the latency charge: a host that died while the
	// spawn was under way surfaces as a mid-spawn failure, not an early
	// argument error.
	for _, h := range hosts {
		if u.hostCheck != nil {
			if err := u.hostCheck(h); err != nil {
				return nil, &HostFailedError{Host: h, Err: err}
			}
		}
	}
	parentGroup := &group{
		ctx:   comm.group.ctx,
		hosts: comm.group.hosts,
		eps:   comm.group.eps,
	}
	envs, _ := u.launch(hosts, parentGroup, main)
	children := envs[0].World.group
	return &Comm{
		u:      u,
		group:  comm.group,
		remote: children,
		ctx:    children.parentInterCtx,
		rank:   comm.rank,
		self:   comm.self,
	}, nil
}

// spawnShare crosses the SpawnMerge broadcast from the spawning rank to the
// rest of the communicator: the parked children group plus the
// intercommunicator context, or the spawn error.
type spawnShare struct {
	GroupID    int64
	Ctx        string
	FailedHost string
	Err        string
}

// SpawnMerge grows an intracommunicator in place — the elastic-expand
// composite of MPI_Comm_spawn and MPI_Intercomm_merge. Collective over
// comm: rank 0 spawns len(hosts) processes running main, every rank joins
// the resulting intercommunicator, and all merge with the existing ranks
// ordered first (they keep their ranks; the children follow in host order).
// The children reach the merged communicator through env.Parent.Merge(true).
//
// A spawn failure is broadcast, so every rank returns the same error —
// *HostFailedError when a target host was down — and the communicator is
// left untouched for a uniform, clean abort of the expansion.
func (env *Env) SpawnMerge(comm *Comm, hosts []string, main Main) (*Comm, error) {
	if comm == nil || comm.remote != nil {
		return nil, fmt.Errorf("mpi: SpawnMerge needs an intracommunicator")
	}
	var share spawnShare
	var inter *Comm
	if comm.rank == 0 {
		var err error
		inter, err = env.spawnFrom(comm, hosts, main)
		if err != nil {
			share.Err = err.Error()
			var hf *HostFailedError
			if errors.As(err, &hf) {
				share.FailedHost = hf.Host
				share.Err = hf.Err.Error()
			}
		} else {
			share.Ctx = inter.ctx
			share.GroupID = env.U.shareGroup(inter.remote, comm.Size()-1)
		}
	}
	if err := comm.Bcast(&share, 0); err != nil {
		return nil, err
	}
	if share.Err != "" {
		if share.FailedHost != "" {
			return nil, &HostFailedError{Host: share.FailedHost, Err: errors.New(share.Err)}
		}
		return nil, fmt.Errorf("mpi: SpawnMerge: %s", share.Err)
	}
	if inter == nil {
		remote := env.U.claimGroup(share.GroupID)
		if remote == nil {
			return nil, fmt.Errorf("mpi: SpawnMerge: spawned group %d already claimed", share.GroupID)
		}
		inter = &Comm{
			u: comm.u, group: comm.group, remote: remote, ctx: share.Ctx,
			rank: comm.rank, self: comm.self,
		}
	}
	return inter.Merge(false)
}

// port is a rendezvous point for Connect/Accept: connects queue until an
// Accept answers them.
type port struct {
	mu     sync.Mutex
	cond   *vclock.Cond
	queue  []*connectReq
	closed bool // by ClosePort, releasing blocked callers
}

type connectReq struct {
	remote   *group
	answered bool // guarded by port.mu
	local    *group
	ctx      string
}

// OpenPort creates a named port another group can connect to
// (MPI_Open_port).
func (u *Universe) OpenPort() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.nextID++
	name := fmt.Sprintf("port-%d", u.nextID)
	p := &port{}
	p.cond = vclock.NewCond(u.clock, &p.mu)
	u.ports[name] = p
	return name
}

// ClosePort removes a port, releasing any Accept or Connect blocked on it
// with an error.
func (u *Universe) ClosePort(name string) {
	u.mu.Lock()
	p, ok := u.ports[name]
	delete(u.ports, name)
	u.mu.Unlock()
	if ok {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

func (u *Universe) port(name string) (*port, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	p, ok := u.ports[name]
	if !ok {
		return nil, fmt.Errorf("mpi: unknown port %q", name)
	}
	return p, nil
}

// Accept waits for a Connect on the port and returns the resulting
// intercommunicator (MPI_Comm_accept). Root-only: the caller represents its
// communicator.
func (env *Env) Accept(portName string, comm *Comm) (*Comm, error) {
	p, err := env.U.port(portName)
	if err != nil {
		return nil, err
	}
	ctx := env.U.nextCtx("intercomm")
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		if p.closed {
			return nil, fmt.Errorf("mpi: port %q closed while accepting", portName)
		}
		p.cond.Wait()
	}
	req := p.queue[0]
	p.queue = p.queue[1:]
	req.answered, req.local, req.ctx = true, comm.group, ctx
	p.cond.Broadcast()
	return &Comm{
		u: env.U, group: comm.group, remote: req.remote, ctx: ctx,
		rank: comm.rank, self: env.ep,
	}, nil
}

// Connect joins a port opened by another group and returns the resulting
// intercommunicator (MPI_Comm_connect). Root-only.
func (env *Env) Connect(portName string, comm *Comm) (*Comm, error) {
	p, err := env.U.port(portName)
	if err != nil {
		return nil, err
	}
	req := &connectReq{remote: comm.group}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = append(p.queue, req)
	p.cond.Broadcast()
	for !req.answered {
		if p.closed {
			return nil, fmt.Errorf("mpi: port %q closed while connecting", portName)
		}
		p.cond.Wait()
	}
	return &Comm{
		u: env.U, group: comm.group, remote: req.local, ctx: req.ctx,
		rank: comm.rank, self: env.ep,
	}, nil
}

// mergeTag is the reserved internal tag of the Merge flag exchange.
const mergeTag = -1 << 20

// Merge turns an intercommunicator into an intracommunicator containing
// both groups (MPI_Intercomm_merge). Processes passing high=false are
// ordered before those passing high=true. Rank 0 of each side exchanges
// flags so the ordering is consistent even if both sides pass the same
// value (ties break on group context); non-zero ranks assume complementary
// flags, so multi-rank groups must pass complementary values.
func (c *Comm) Merge(high bool) (*Comm, error) {
	if c.remote == nil {
		return nil, fmt.Errorf("mpi: Merge of an intracommunicator")
	}
	local, remote := c.group, c.remote

	remoteHigh := !high
	if c.rank == 0 {
		if err := c.send(high, 0, mergeTag); err != nil {
			return nil, err
		}
		if _, err := c.recvInternal(&remoteHigh, 0, mergeTag); err != nil {
			return nil, err
		}
	}
	var first, second *group
	switch {
	case high != remoteHigh:
		if high {
			first, second = remote, local
		} else {
			first, second = local, remote
		}
	case local.ctx < remote.ctx:
		first, second = local, remote
	default:
		first, second = remote, local
	}
	// Both sides derive the identical context from shared knowledge: the
	// intercomm ctx plus the sorted pair of group ctxs.
	pair := []string{local.ctx, remote.ctx}
	sort.Strings(pair)
	ctx := fmt.Sprintf("%s/merged-%s-%s", c.ctx, pair[0], pair[1])

	ng := &group{ctx: ctx}
	ng.eps = append(append([]*endpoint(nil), first.eps...), second.eps...)
	ng.hosts = append(append([]string(nil), first.hosts...), second.hosts...)
	rank := -1
	for i, ep := range ng.eps {
		if ep == c.self {
			rank = i
			break
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("mpi: caller not in merged group")
	}
	return &Comm{u: c.u, group: ng, rank: rank, self: c.self}, nil
}
