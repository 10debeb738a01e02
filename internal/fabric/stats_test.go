package fabric_test

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/sim"
)

func TestLinkStatsRanges(t *testing.T) {
	net := irregularNet(t, 8, 4, 3, fabric.DefaultConfig(), 2, 1)
	rng := sim.NewRNG(1)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 1000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Send(dst, 32, true)
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	stats := net.LinkStats()
	// 8 switches x 4 links = 16 undirected = 32 directed channels.
	if len(stats) != 32 {
		t.Fatalf("LinkStats returned %d channels, want 32", len(stats))
	}
	var packets uint64
	for _, s := range stats {
		if s.Utilization < 0 || s.Utilization > 1 {
			t.Fatalf("utilization %v out of range: %+v", s.Utilization, s)
		}
		packets += s.Packets
	}
	if packets == 0 {
		t.Fatal("no inter-switch packets counted under uniform traffic")
	}
	// Sorted descending.
	for i := 1; i < len(stats); i++ {
		if stats[i].Utilization > stats[i-1].Utilization {
			t.Fatal("LinkStats not sorted by utilization")
		}
	}
}

func TestUtilizationSummary(t *testing.T) {
	net := irregularNet(t, 8, 4, 5, fabric.DefaultConfig(), 2, 1)
	rng := sim.NewRNG(2)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 2000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Send(dst, 32, false)
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	u := net.Utilization()
	if u.Mean <= 0 || u.Peak < u.Mean || u.Imbalance < 1 {
		t.Fatalf("implausible summary: %+v", u)
	}
	if u.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestUtilizationEmptyNetwork(t *testing.T) {
	net := irregularNet(t, 8, 4, 7, fabric.DefaultConfig(), 2, 1)
	u := net.Utilization()
	if u.Mean != 0 || u.Peak != 0 {
		t.Fatalf("idle network has utilization %+v", u)
	}
}

// TestRootCongestionVisibleInUtilization reproduces the qualitative
// claim of §5.2.1: under deterministic up*/down* routing, traffic
// concentrates near the root, so peak/mean link imbalance is high;
// adaptive routing spreads it. We assert det imbalance >= adaptive
// imbalance on a larger topology where the effect is pronounced.
func TestRootCongestionVisibleInUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	imbalance := func(adaptive bool) float64 {
		cfg := fabric.DefaultConfig()
		cfg.AdaptiveSwitches = adaptive
		net := irregularNet(t, 32, 4, 9, cfg, 2, 1)
		rng := sim.NewRNG(3)
		hosts := net.Topo.NumHosts()
		for i := 0; i < 20000; i++ {
			src, dst := rng.Intn(hosts), rng.Intn(hosts)
			if src == dst {
				dst = (dst + 1) % hosts
			}
			net.Hosts[src].Send(dst, 32, adaptive)
		}
		if err := net.Drain(); err != nil {
			t.Fatal(err)
		}
		return net.Utilization().Imbalance
	}
	det, ada := imbalance(false), imbalance(true)
	if det < ada*0.95 {
		t.Fatalf("deterministic imbalance %.2f not above adaptive %.2f", det, ada)
	}
}
