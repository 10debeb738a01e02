package fabric_test

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
)

// buildNet wires a network over the topology and programs its tables.
func buildNet(t testing.TB, topo *topology.Topology, cfg fabric.Config, mr int, lmc uint) *fabric.Network {
	t.Helper()
	plan, err := ib.NewAddressPlan(topo.NumHosts(), lmc)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := subnet.DefaultOptions()
	opts.MaxRoutingOptions = mr
	if _, err := subnet.Configure(net, opts); err != nil {
		t.Fatal(err)
	}
	return net
}

func lineNet(t testing.TB, switches int, cfg fabric.Config) *fabric.Network {
	t.Helper()
	topo, err := topology.Line(switches, 4)
	if err != nil {
		t.Fatal(err)
	}
	return buildNet(t, topo, cfg, 2, 1)
}

func irregularNet(t testing.TB, n, k int, seed uint64, cfg fabric.Config, mr int, lmc uint) *fabric.Network {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: n, HostsPerSwitch: 4, InterSwitch: k, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buildNet(t, topo, cfg, mr, lmc)
}

func TestSinglePacketTimingTwoSwitches(t *testing.T) {
	// Host on switch 0 to host on switch 1 over a 2-switch line with a
	// 32-byte packet. Expected schedule:
	//   t=0    injection transmission starts (ser = 32 B * 4 ns = 128)
	//   t=100  header at switch 0 (propagation)
	//   t=200  routing done, transmission to switch 1 starts
	//   t=300  header at switch 1
	//   t=400  routing done, transmission to destination CA starts
	//   t=628  tail delivered (400 + 128 + 100)
	net := lineNet(t, 2, fabric.DefaultConfig())
	pkt := net.NewPacket(0, 4, 32, false)
	var deliveredAt sim.Time = -1
	net.OnDelivered = func(p *ib.Packet) { deliveredAt = p.DeliveredAt }
	net.Hosts[0].Inject(pkt)
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != 628 {
		t.Fatalf("delivered at %v, want 628", deliveredAt)
	}
	if pkt.Hops != 2 {
		t.Fatalf("hops = %d, want 2", pkt.Hops)
	}
}

func TestSinglePacketSameSwitch(t *testing.T) {
	// Host 0 -> host 1, both on switch 0: one switch traversal.
	// t=0 inject, t=100 header, t=200 tx to CA, t=428 delivered.
	net := lineNet(t, 2, fabric.DefaultConfig())
	pkt := net.NewPacket(0, 1, 32, false)
	net.Hosts[0].Inject(pkt)
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if pkt.DeliveredAt != 428 {
		t.Fatalf("delivered at %v, want 428", pkt.DeliveredAt)
	}
	if pkt.Hops != 1 {
		t.Fatalf("hops = %d, want 1", pkt.Hops)
	}
}

func TestLargePacketTiming(t *testing.T) {
	// 256-byte packet, same switch: ser = 1024 ns.
	// t=200 tx to CA, delivered 200 + 1024 + 100 = 1324.
	net := lineNet(t, 2, fabric.DefaultConfig())
	pkt := net.NewPacket(0, 1, 256, false)
	net.Hosts[0].Inject(pkt)
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if pkt.DeliveredAt != 1324 {
		t.Fatalf("delivered at %v, want 1324", pkt.DeliveredAt)
	}
}

func TestAllPacketsDeliveredNoLossNoDup(t *testing.T) {
	net := irregularNet(t, 8, 4, 3, fabric.DefaultConfig(), 2, 1)
	rng := sim.NewRNG(99)
	seen := map[uint64]int{}
	injected := 0
	net.OnDelivered = func(p *ib.Packet) { seen[p.ID]++ }
	hosts := net.Topo.NumHosts()
	for i := 0; i < 500; i++ {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts)
		if dst == src {
			dst = (dst + 1) % hosts
		}
		pkt := net.NewPacket(src, dst, 32, rng.Bool(0.5))
		net.Hosts[src].Inject(pkt)
		injected++
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != injected {
		t.Fatalf("delivered %d distinct packets, want %d", len(seen), injected)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("packet %d delivered %d times", id, n)
		}
	}
}

func TestCreditConservationAfterDrain(t *testing.T) {
	net := irregularNet(t, 8, 4, 5, fabric.DefaultConfig(), 2, 1)
	rng := sim.NewRNG(7)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 300; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 256, rng.Bool(0.7)))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := net.CreditsIntact(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInOrderDelivery(t *testing.T) {
	// All-deterministic traffic between one hot pair must arrive in
	// sequence order despite congestion from background flows.
	net := irregularNet(t, 8, 4, 11, fabric.DefaultConfig(), 2, 1)
	lastSeq := map[[2]int]uint64{}
	var violations int
	net.OnDelivered = func(p *ib.Packet) {
		if p.Adaptive {
			return
		}
		key := [2]int{p.Src, p.Dst}
		if last, ok := lastSeq[key]; ok && p.SeqNo <= last {
			violations++
		}
		lastSeq[key] = p.SeqNo
	}
	rng := sim.NewRNG(13)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 400; i++ {
		// Deterministic stream 0 -> last host, random background.
		net.Hosts[0].Inject(net.NewPacket(0, hosts-1, 32, false))
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		if src != 0 {
			net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
		}
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d in-order violations for deterministic traffic", violations)
	}
}

func TestAdaptiveOverloadDrains(t *testing.T) {
	// Saturating burst of 100% adaptive traffic must still drain —
	// the escape-path deadlock-freedom argument made executable.
	net := irregularNet(t, 16, 4, 17, fabric.DefaultConfig(), 2, 1)
	rng := sim.NewRNG(23)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 3000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 256, true))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := net.CreditsIntact(); err != nil {
		t.Fatal(err)
	}
}

func TestHotspotOverloadDrains(t *testing.T) {
	// Everyone floods one destination: maximum tree contention.
	net := irregularNet(t, 8, 4, 29, fabric.DefaultConfig(), 2, 1)
	hosts := net.Topo.NumHosts()
	for round := 0; round < 40; round++ {
		for src := 1; src < hosts; src++ {
			net.Hosts[src].Inject(net.NewPacket(src, 0, 256, true))
		}
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestPlainDeterministicSubnet(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.AdaptiveSwitches = false
	net := irregularNet(t, 8, 4, 31, cfg, 2, 1)
	rng := sim.NewRNG(37)
	hosts := net.Topo.NumHosts()
	delivered := 0
	net.OnDelivered = func(p *ib.Packet) { delivered++ }
	for i := 0; i < 500; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		// Baseline subnets carry deterministic DLIDs.
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, false))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 500 {
		t.Fatalf("delivered %d, want 500", delivered)
	}
}

func TestHopsBoundedByDiameterPlusTables(t *testing.T) {
	// Deterministic packets follow the up*/down* table path exactly;
	// adaptive packets may take escape detours but must stay within a
	// sane bound (escape path length from any intermediate switch).
	net := irregularNet(t, 16, 4, 41, fabric.DefaultConfig(), 2, 1)
	maxHops := 0
	net.OnDelivered = func(p *ib.Packet) {
		if p.Hops > maxHops {
			maxHops = p.Hops
		}
	}
	rng := sim.NewRNG(43)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 2000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	bound := 4 * net.Topo.NumSwitches // generous livelock guard
	if maxHops > bound {
		t.Fatalf("max hops %d exceeds bound %d", maxHops, bound)
	}
}

func TestLatencyNeverBelowAnalyticMinimum(t *testing.T) {
	// Minimum possible latency for a 32 B packet crossing h switches:
	// injection ser overlap aside, each switch adds routing delay and
	// each link propagation; tail delivery adds one serialization.
	net := irregularNet(t, 8, 4, 47, fabric.DefaultConfig(), 2, 1)
	var bad int
	net.OnDelivered = func(p *ib.Packet) {
		minLat := sim.Time(p.Hops)*(ib.RoutingDelay+ib.PropagationDelay) +
			ib.PropagationDelay + ib.SerializationTime(p.Size)
		if p.Latency() < minLat {
			bad++
		}
	}
	rng := sim.NewRNG(53)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 1000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, rng.Bool(0.5)))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d packets beat the analytic latency minimum", bad)
	}
}

func TestImmediateSelectionModesDrain(t *testing.T) {
	for _, aware := range []bool{true, false} {
		cfg := fabric.DefaultConfig()
		cfg.Selection.AtArbitration = false
		cfg.Selection.StatusAware = aware
		net := irregularNet(t, 8, 4, 59, cfg, 2, 1)
		rng := sim.NewRNG(61)
		hosts := net.Topo.NumHosts()
		for i := 0; i < 800; i++ {
			src, dst := rng.Intn(hosts), rng.Intn(hosts)
			if src == dst {
				dst = (dst + 1) % hosts
			}
			net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
		}
		if err := net.Drain(); err != nil {
			t.Fatalf("aware=%v: %v", aware, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.NumVLs = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("NumVLs 0 accepted")
	}
	cfg = fabric.DefaultConfig()
	cfg.BufferCredits = 4 // cannot hold two MTU packets
	if err := cfg.Validate(); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	cfg = fabric.DefaultConfig()
	cfg.MTU = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("MTU 0 accepted")
	}
}

func TestNewNetworkRejectsMismatchedPlan(t *testing.T) {
	topo, err := topology.Line(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(4, 1) // topology has 8 hosts
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.NewNetwork(topo, plan, fabric.DefaultConfig(), 1); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}

func TestMultiVLConfiguration(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.NumVLs = 2
	net := irregularNet(t, 8, 4, 67, cfg, 2, 1)
	rng := sim.NewRNG(71)
	hosts := net.Topo.NumHosts()
	delivered := 0
	net.OnDelivered = func(p *ib.Packet) { delivered++ }
	for i := 0; i < 400; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		pkt := net.NewPacket(src, dst, 32, true)
		pkt.SL = i % 2 // spread across both VLs
		net.Hosts[src].Inject(pkt)
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 400 {
		t.Fatalf("delivered %d, want 400", delivered)
	}
}

// TestRecycleReturnsQueue is the sweep-arena gate: Network.Recycle must
// hand the engine's queue storage back so the next sweep point reuses
// it.
func TestRecycleReturnsQueue(t *testing.T) {
	topo, err := topology.Line(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	arena := sim.NewQueueArena()
	cfg := fabric.DefaultConfig()
	cfg.EngineOpts = []sim.EngineOption{sim.WithArena(arena)}
	net, err := fabric.NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.Recycle()
	if got := arena.Pooled(); got != 1 {
		t.Fatalf("arena pooled %d queues after Recycle, want 1", got)
	}
	// A second network with the same config must draw it back out.
	net2, err := fabric.NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := arena.Pooled(); got != 0 {
		t.Fatalf("arena still pools %d queues after rebuild, want 0", got)
	}
	net2.Recycle()
	if got := arena.Pooled(); got != 1 {
		t.Fatalf("arena pooled %d queues after second Recycle, want 1", got)
	}
}
