package registry

import (
	"fmt"
	"testing"

	"autoresched/internal/persist"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// benchReg builds a registry holding n hosts: every eighth host free, the
// rest busy — the shape a loaded cluster presents to first fit.
func benchReg(b *testing.B, n int) *Registry {
	b.Helper()
	r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)))
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("ws%d", i+1)
		if err := r.RegisterHost(host, staticFor(host)); err != nil {
			b.Fatal(err)
		}
		st := status("busy", 1.5, 40)
		if i%8 == 0 {
			st = status("free", 0.2, 20)
		}
		if err := r.ReportStatus(host, st); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkRegistryReportStatus measures the status-ingest hot path at 512
// hosts, one report per call.
func BenchmarkRegistryReportStatus(b *testing.B) {
	r := benchReg(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := fmt.Sprintf("ws%d", i%512+1)
		st := status("busy", 1.5, 40)
		if i%2 == 0 {
			st = status("free", 0.2, 20) // force a state-set move
		}
		if err := r.ReportStatus(host, st); err != nil {
			b.Fatal(err)
		}
	}
}

// resortReg replicates the seed registry's candidate path: hosts live in a
// map, and every placement rebuilds the registration order with an
// insertion sort before scanning for the first free host. It is the
// baseline the state-indexed sets replaced.
type resortReg struct {
	hosts map[string]*resortHost
}

type resortHost struct {
	name     string
	state    rules.State
	regOrder int
}

func newResortReg(n int) *resortReg {
	r := &resortReg{hosts: make(map[string]*resortHost)}
	for i := 0; i < n; i++ {
		state := rules.Busy
		if i%8 == 0 {
			state = rules.Free
		}
		name := fmt.Sprintf("ws%d", i+1)
		r.hosts[name] = &resortHost{name: name, state: state, regOrder: i}
	}
	return r
}

func (r *resortReg) firstFit(exclude string) (string, bool) {
	out := make([]*resortHost, 0, len(r.hosts))
	for _, e := range r.hosts {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].regOrder > out[j].regOrder; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	for _, e := range out {
		if e.name != exclude && e.state.AcceptsMigration() {
			return e.name, true
		}
	}
	return "", false
}

// BenchmarkCandidate512 compares candidate selection over 512 hosts:
// "indexed" is the registry's state-indexed first fit, "resort" is the
// seed's rebuild-sort-scan replica on identical host data.
func BenchmarkCandidate512(b *testing.B) {
	proc := ProcInfo{Host: "ws2", PID: 7}
	b.Run("indexed", func(b *testing.B) {
		r := benchReg(b, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.FirstFit("ws2", proc); !ok {
				b.Fatal("no candidate")
			}
		}
	})
	b.Run("resort", func(b *testing.B) {
		r := newResortReg(512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.firstFit("ws2"); !ok {
				b.Fatal("no candidate")
			}
		}
	})
}

// BenchmarkCandidate sweeps first fit across cluster sizes; near-flat
// ns/op growth shows selection cost no longer tracks host count.
func BenchmarkCandidate(b *testing.B) {
	proc := ProcInfo{Host: "ws2", PID: 7}
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("hosts%d", n), func(b *testing.B) {
			r := benchReg(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := r.FirstFit("ws2", proc); !ok {
					b.Fatal("no candidate")
				}
			}
		})
	}
}

// BenchmarkEligibleHosts measures the dispatcher's fleet snapshot at 256
// hosts, the size of the admission benchmark's fleet; B/op is the snapshot.
func BenchmarkEligibleHosts(b *testing.B) {
	r := benchReg(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fleet := r.EligibleHosts(ProcInfo{}, nil); len(fleet) != 256 {
			b.Fatalf("snapshot lists %d of 256 hosts", len(fleet))
		}
	}
}

// BenchmarkGangAdmission measures one 4-host gang admission on a durable
// registry at 256 hosts: PlaceGang, then Commit, each journalled.
func BenchmarkGangAdmission(b *testing.B) {
	r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)), WithStore(persist.NewMemStore()))
	for i := 0; i < 256; i++ {
		host := fmt.Sprintf("ws%d", i+1)
		if err := r.RegisterHost(host, staticFor(host)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, ok := r.PlaceGang(ProcInfo{Name: "job"}, 4, nil)
		if !ok {
			b.Fatal("PlaceGang declined on a free fleet")
		}
		if err := g.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
