package jobs

import (
	"fmt"
	"slices"
)

// Ledger records which jobs hold each host, in admission order, each with
// its placement in rank order: pure bookkeeping (no clock, no lock; the
// zero value is ready) that the live dispatcher and the fleet model share.
// Occupy keeps admissions to one job per host; a pinned placement (Pin) or
// a landed first-fit move (Move) may share one, and Owner then names the
// first-admitted holder. Reservations stay the registry's gang marks.
type Ledger struct {
	held []holding
}

type holding struct {
	job   string
	hosts []string // one entry per rank
}

func (l *Ledger) find(job string) int {
	return slices.IndexFunc(l.held, func(h holding) bool { return h.job == job })
}

// clash reports a host of hosts that a job other than job holds.
func (l *Ledger) clash(job string, hosts []string) error {
	for _, h := range l.held {
		if i := slices.IndexFunc(hosts, func(x string) bool { return slices.Contains(h.hosts, x) }); h.job != job && i >= 0 {
			return fmt.Errorf("jobs: host %s is %s's, not free for %s", hosts[i], h.job, job)
		}
	}
	return nil
}

// Occupy appends hosts to job's placement unless another job holds one.
func (l *Ledger) Occupy(job string, hosts ...string) error {
	if err := l.clash(job, hosts); err != nil {
		return err
	}
	l.Pin(job, hosts...)
	return nil
}

// Pin appends hosts to job's placement without checking other holders.
func (l *Ledger) Pin(job string, hosts ...string) {
	if i := l.find(job); i >= 0 {
		l.held[i].hosts = append(l.held[i].hosts, hosts...)
	} else {
		l.held = append(l.held, holding{job, slices.Clone(hosts)})
	}
}

// Move records that job's rank on from has landed on to. It never refuses.
func (l *Ledger) Move(job, from, to string) {
	if i := l.find(job); i >= 0 {
		if r := slices.Index(l.held[i].hosts, from); r >= 0 {
			l.held[i].hosts[r] = to
		}
	}
}

// Exit removes one of job's ranks on host.
func (l *Ledger) Exit(job, host string) {
	if i := l.find(job); i >= 0 {
		if r := slices.Index(l.held[i].hosts, host); r >= 0 {
			l.held[i].hosts = slices.Delete(l.held[i].hosts, r, r+1)
		}
	}
}

// Release drops job's whole placement.
func (l *Ledger) Release(job string) {
	if i := l.find(job); i >= 0 {
		l.held = slices.Delete(l.held, i, i+1)
	}
}

// Owner names the first-admitted job holding host, or "".
func (l *Ledger) Owner(host string) string {
	for _, h := range l.held {
		if slices.Contains(h.hosts, host) {
			return h.job
		}
	}
	return ""
}

// Placement returns job's hosts in rank order, valid until the next change.
func (l *Ledger) Placement(job string) []string {
	if i := l.find(job); i >= 0 {
		return slices.Clip(l.held[i].hosts)
	}
	return nil
}

// View snapshots fleet, the schedulable hosts in planning order, for the
// planner: each host names its first-admitted holder, and each running
// view's Hosts becomes the job's placement cut to the fleet.
func (l *Ledger) View(fleet []string, running []JobView, eligible func(job, host string) bool) ClusterView {
	at := make(map[string]int, len(fleet))
	hosts := make([]HostView, len(fleet))
	for i, h := range fleet {
		at[h], hosts[i] = i, HostView{Name: h}
	}
	for i := len(l.held) - 1; i >= 0; i-- {
		for _, h := range l.held[i].hosts {
			if k, ok := at[h]; ok {
				hosts[k].Job = l.held[i].job
			}
		}
	}
	for i := range running {
		running[i].Hosts = slices.DeleteFunc(slices.Clone(l.Placement(running[i].Name)), func(h string) bool { _, ok := at[h]; return !ok })
	}
	return ClusterView{Hosts: hosts, Running: running, Eligible: eligible}
}
