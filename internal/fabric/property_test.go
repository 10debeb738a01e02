package fabric_test

import (
	"testing"
	"testing/quick"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// TestDrainPropertyRandomWorkloads is the package's broadest safety
// net: across random topologies, packet sizes, adaptive shares and
// burst shapes, every finite workload drains completely with flow
// control conserved. Any deadlock, credit leak, loss or duplication
// regression trips it.
func TestDrainPropertyRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulations")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		size := []int{8, 16}[rng.Intn(2)]
		links := []int{4, 6}[rng.Intn(2)]
		pktSize := []int{32, 64, 200, 256}[rng.Intn(4)]
		adaptiveShare := rng.Float64()
		burst := 200 + rng.Intn(800)

		net := irregularNet(t, size, links, seed, fabric.DefaultConfig(), 2, 1)
		hosts := net.Topo.NumHosts()
		delivered := 0
		net.OnDelivered = func(_ *ib.Packet) { delivered++ }
		for i := 0; i < burst; i++ {
			src, dst := rng.Intn(hosts), rng.Intn(hosts)
			if src == dst {
				dst = (dst + 1) % hosts
			}
			net.Hosts[src].Send(dst, pktSize, rng.Bool(adaptiveShare))
		}
		if err := net.Drain(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if delivered != burst {
			t.Logf("seed %d: delivered %d of %d", seed, delivered, burst)
			return false
		}
		if err := net.CreditsIntact(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
