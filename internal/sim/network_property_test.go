package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"autoresched/internal/vclock"
)

// flowSpec is one randomized transfer in a property run.
type flowSpec struct {
	from, to string
	size     int64
}

// randomTopology builds a network on a manual clock with nHosts random NIC
// capacities and a few random link degradations, all drawn from rng.
func randomTopology(t *testing.T, rng *rand.Rand, nHosts int) (*Network, *vclock.Auto, []string) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	n := NewNetwork(clock, Options{DefaultBandwidth: 1e6})
	hosts := make([]string, nHosts)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i)
		cap := 1e5 * float64(1+rng.Intn(20)) // 0.1..2 MB/s
		if err := n.AddHostBandwidth(hosts[i], cap); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < nHosts/2; k++ {
		a, b := hosts[rng.Intn(nHosts)], hosts[rng.Intn(nHosts)]
		if a == b {
			continue
		}
		if err := n.SetLinkFactor(a, b, 0.1+0.8*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return n, clock, hosts
}

// startFlows launches every transfer on its own goroutine and lets one
// nanosecond pass, so that all of them are registered as active flows and
// still in flight. The returned channel is closed once every transfer has
// returned.
func startFlows(t *testing.T, n *Network, clock *vclock.Auto, specs []flowSpec) (<-chan struct{}, []error) {
	t.Helper()
	var wg vclock.WaitGroup
	errs := make([]error, len(specs))
	for i, sp := range specs {
		wg.Add(1)
		vclock.Go(clock, func() {
			defer wg.Done()
			errs[i] = n.Transfer(sp.from, sp.to, sp.size)
		})
	}
	done := make(chan struct{})
	vclock.Go(clock, func() {
		wg.Wait(clock)
		close(done)
	})
	clock.Sleep(time.Nanosecond)
	if got := n.activeFlows(); got != len(specs) {
		t.Fatalf("only %d/%d flows registered", got, len(specs))
	}
	return done, errs
}

// checkRateInvariants verifies, against the global flow set, that
//
//  1. every flow's incrementally maintained rate equals a from-scratch
//     fair-share recomputation (min of the two NIC-direction shares, times
//     the link factor), and
//  2. no NIC direction's aggregate rate exceeds its capacity.
//
// The brute force deliberately counts flow populations by scanning n.flows
// rather than trusting the per-NIC membership sets it is checking.
func checkRateInvariants(t *testing.T, n *Network) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for f := range n.flows {
		sendCount, recvCount := 0, 0
		for g := range n.flows {
			if g.from == f.from {
				sendCount++
			}
			if g.to == f.to {
				recvCount++
			}
		}
		want := math.Min(f.from.capacity/float64(sendCount), f.to.capacity/float64(recvCount))
		if factor, ok := n.factors[link(f.from.name, f.to.name)]; ok {
			want *= factor
		}
		if math.Abs(f.rate-want) > 1e-6*want {
			t.Fatalf("flow %s->%s rate %v, brute-force fair share %v",
				f.from.name, f.to.name, f.rate, want)
		}
	}
	for name, h := range n.hosts {
		var sendSum, recvSum float64
		for f := range n.flows {
			if f.from == h {
				sendSum += f.rate
			}
			if f.to == h {
				recvSum += f.rate
			}
		}
		if sendSum > h.capacity*(1+1e-9) {
			t.Fatalf("host %s send rate %v exceeds capacity %v", name, sendSum, h.capacity)
		}
		if recvSum > h.capacity*(1+1e-9) {
			t.Fatalf("host %s recv rate %v exceeds capacity %v", name, recvSum, h.capacity)
		}
	}
}

// drain runs the clock in 2-second steps until every transfer has
// returned, re-checking the rate invariants along the way (each completion
// hands its freed capacity to the surviving flows).
func drain(t *testing.T, n *Network, clock *vclock.Auto, done <-chan struct{}) {
	t.Helper()
	for i := 0; !vclock.Wait(clock, 2*time.Second, done); i++ {
		if i%8 == 0 {
			checkRateInvariants(t, n)
		}
	}
}

// Property: for randomized topologies and flow sets, the incremental
// fair-share solver agrees with a from-scratch recomputation, and no NIC
// direction is ever oversubscribed — at admission and across completions.
func TestFairShareMatchesBruteForceProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			nHosts := 3 + rng.Intn(6)
			n, clock, hosts := randomTopology(t, rng, nHosts)
			specs := make([]flowSpec, 4+rng.Intn(12))
			for i := range specs {
				from := hosts[rng.Intn(nHosts)]
				to := hosts[rng.Intn(nHosts)]
				for to == from {
					to = hosts[rng.Intn(nHosts)]
				}
				specs[i] = flowSpec{from: from, to: to, size: int64(1e4 * (1 + rng.Intn(400)))}
			}
			done, errs := startFlows(t, n, clock, specs)
			checkRateInvariants(t, n)
			drain(t, n, clock, done)
			for i, err := range errs {
				if err != nil {
					t.Errorf("transfer %d (%s->%s): %v", i, specs[i].from, specs[i].to, err)
				}
			}
		})
	}
}

// Property: once every randomized flow completes, bytes are conserved —
// each host's cumulative send/receive counters sum to exactly the bytes the
// flow set injected, with no NIC double-counting across shared segments.
func TestRandomFlowsConserveBytes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(100 + seed))
			nHosts := 3 + rng.Intn(5)
			n, clock, hosts := randomTopology(t, rng, nHosts)
			specs := make([]flowSpec, 4+rng.Intn(10))
			sentWant := make(map[string]float64)
			recvWant := make(map[string]float64)
			for i := range specs {
				from := hosts[rng.Intn(nHosts)]
				to := hosts[rng.Intn(nHosts)]
				for to == from {
					to = hosts[rng.Intn(nHosts)]
				}
				size := int64(1e4 * (1 + rng.Intn(200)))
				specs[i] = flowSpec{from: from, to: to, size: size}
				sentWant[from] += float64(size)
				recvWant[to] += float64(size)
			}
			done, errs := startFlows(t, n, clock, specs)
			drain(t, n, clock, done)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("transfer %d: %v", i, err)
				}
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			for _, h := range hosts {
				nic := n.hosts[h]
				if math.Abs(nic.sentBytes-sentWant[h]) > 1 {
					t.Errorf("host %s sent %v bytes, want %v", h, nic.sentBytes, sentWant[h])
				}
				if math.Abs(nic.recvBytes-recvWant[h]) > 1 {
					t.Errorf("host %s received %v bytes, want %v", h, nic.recvBytes, recvWant[h])
				}
			}
		})
	}
}

// Property: partitions are symmetric. Cutting (a,b) blocks transfers in
// both directions and reports Partitioned for both argument orders; healing
// restores both; third-party links never notice.
func TestPartitionSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clock := vclock.NewAuto(vclock.Epoch)
	n := NewNetwork(clock, Options{})
	hosts := []string{"a", "b", "c", "d", "e"}
	for _, h := range hosts {
		if err := n.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	// Zero-size transfers exercise the partition check without needing
	// virtual time to pass.
	probe := func(x, y string) error { return n.Transfer(x, y, 0) }
	for trial := 0; trial < 50; trial++ {
		x, y := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if x == y {
			continue
		}
		var z string
		for {
			z = hosts[rng.Intn(len(hosts))]
			if z != x && z != y {
				break
			}
		}
		if err := n.SetPartitioned(x, y, true); err != nil {
			t.Fatal(err)
		}
		if !n.Partitioned(x, y) || !n.Partitioned(y, x) {
			t.Fatalf("partition (%s,%s) not symmetric", x, y)
		}
		if err := probe(x, y); err != ErrPartitioned {
			t.Fatalf("transfer %s->%s across partition: %v", x, y, err)
		}
		if err := probe(y, x); err != ErrPartitioned {
			t.Fatalf("transfer %s->%s across partition: %v", y, x, err)
		}
		if err := probe(x, z); err != nil {
			t.Fatalf("third-party transfer %s->%s: %v", x, z, err)
		}
		if err := n.SetPartitioned(y, x, false); err != nil { // heal with swapped order
			t.Fatal(err)
		}
		if n.Partitioned(x, y) || n.Partitioned(y, x) {
			t.Fatalf("heal (%s,%s) not symmetric", y, x)
		}
		if err := probe(x, y); err != nil {
			t.Fatalf("transfer %s->%s after heal: %v", x, y, err)
		}
	}
}
