package jobs

import (
	"fmt"
	"testing"
)

// benchView builds a half-occupied fleet sized to the queue depth so
// admission always has both free hosts and preemption work to do. The
// running gangs fill the first half of the fleet. With hetero set the
// fleet is heterogeneous: pending gangs (Gang > 1) fit only that first
// half, while singletons and the running jobs fit everywhere, so a
// preempting gang must evict, and a rigid victim can migrate onto the free
// second half until it fills — shrink, migrate and requeue all occur.
func benchView(depth int, hetero bool) ([]JobView, ClusterView) {
	hosts := fleet(depth)
	var running []JobView
	for i := 0; i < depth/4; i++ {
		h := []string{hosts[2*i].Name, hosts[2*i+1].Name}
		occupy(hosts, fmt.Sprintf("run%d", i), h...)
		running = append(running, JobView{
			Name: fmt.Sprintf("run%d", i), Priority: i % 2, Gang: 2,
			Elastic: i%3 == 0, MinWorld: 1, Seq: int64(i + 1), Hosts: h,
		})
	}
	pending := make([]JobView, depth)
	for i := range pending {
		pending[i] = JobView{
			Name: fmt.Sprintf("job%d", i), Priority: i % 3,
			Gang: 1 + i%4, Seq: int64(depth + i),
		}
	}
	view := ClusterView{Hosts: hosts, Running: running}
	if hetero {
		gang := make(map[string]bool, depth)
		for _, p := range pending {
			gang[p.Name] = p.Gang > 1
		}
		firstHalf := make(map[string]bool, depth/2)
		for _, h := range hosts[:depth/2] {
			firstHalf[h.Name] = true
		}
		view.Eligible = func(job, host string) bool { return !gang[job] || firstHalf[host] }
	}
	return pending, view
}

// BenchmarkAdmission measures one full PlanCycle at queue depths 64 and 256
// under each stock policy — the planner cost the live dispatcher pays per
// scheduling tick — on the homogeneous fleet and on the heterogeneous one,
// where preemption migrates victims.
func BenchmarkAdmission(b *testing.B) {
	for _, hetero := range []bool{false, true} {
		for _, depth := range []int{64, 256} {
			pending, view := benchView(depth, hetero)
			for _, p := range Policies() {
				name := fmt.Sprintf("%s/depth%d", p.Name(), depth)
				if hetero {
					name += "/hetero"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						PlanCycle(p, pending, view)
					}
				})
			}
		}
	}
}
