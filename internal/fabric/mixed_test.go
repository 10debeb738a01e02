package fabric_test

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// TestMixedTrafficOverloadDrains is the regression test for a deadlock
// found during the Figure 3 reproduction: with mixed deterministic and
// adaptive traffic, an escape-queue service point that *stalls* behind
// a deterministic packet in the adaptive region (instead of serving
// it, per §4.4's pointer) reintroduces circular waits and wedges the
// network. A saturating mixed burst must always drain.
func TestMixedTrafficOverloadDrains(t *testing.T) {
	for _, size := range []int{16, 32} {
		for _, adaptiveShare := range []float64{0.25, 0.5, 0.75} {
			net := irregularNet(t, size, 4, uint64(size)*7, fabric.DefaultConfig(), 2, 1)
			rng := sim.NewRNG(uint64(size) + uint64(adaptiveShare*100))
			hosts := net.Topo.NumHosts()
			for i := 0; i < 60*hosts; i++ {
				src, dst := rng.Intn(hosts), rng.Intn(hosts)
				if src == dst {
					dst = (dst + 1) % hosts
				}
				net.Hosts[src].Send(dst, 32, rng.Bool(adaptiveShare))
			}
			if err := net.Drain(); err != nil {
				t.Fatalf("size=%d adaptive=%.0f%%: %v", size, adaptiveShare*100, err)
			}
			if err := net.CreditsIntact(); err != nil {
				t.Fatalf("size=%d adaptive=%.0f%%: %v", size, adaptiveShare*100, err)
			}
		}
	}
}

// TestMixedSustainedLoadMakesProgress runs sustained mixed traffic
// past saturation and asserts deliveries keep happening in every
// window — the live-progress property the deadlock violated (a drain
// test alone can miss wedges that a sustained generator provokes).
func TestMixedSustainedLoadMakesProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained simulation")
	}
	net := irregularNet(t, 32, 4, 11, fabric.DefaultConfig(), 2, 1)
	rng := sim.NewRNG(3)
	hosts := net.Topo.NumHosts()
	delivered := uint64(0)
	net.OnDelivered = func(_ *ib.Packet) { delivered++ }

	// Inject at ~2x the deterministic saturation rate, 50% adaptive,
	// in 20 windows of 50 us; each window must deliver something.
	var inject func()
	inject = func() {
		for h := 0; h < hosts; h++ {
			src := h
			dst := rng.Intn(hosts)
			if dst == src {
				dst = (dst + 1) % hosts
			}
			net.Hosts[src].Send(dst, 32, rng.Bool(0.5))
		}
		if net.Engine.Now() < 1_000_000 {
			net.Engine.Schedule(500, inject)
		}
	}
	net.Engine.Schedule(0, inject)

	var last uint64
	for w := 1; w <= 20; w++ {
		net.Engine.Run(sim.Time(w) * 50_000)
		if delivered == last {
			t.Fatalf("window %d: no deliveries (wedged at %d)", w, delivered)
		}
		last = delivered
	}
}
