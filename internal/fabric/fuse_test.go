package fabric

// In-package tests for the hop-fusion runtime switch: the fast path
// must engage by default, stand down whenever an observer or tamper
// model needs honest per-hop events, and hold the unfused oracle to
// the same zero-allocation bar as the fused path.

import (
	"testing"
)

// runHotpathTraffic pushes a packet through the two-switch line and
// drains the engine; the minimal traversal every fusion test reuses.
func runHotpathTraffic(net *Network) {
	sw := net.Switches[0]
	pkt := testPacket(net, 0, 7, 32, true)
	sw.receive(0, 0, pkt)
	net.Engine.RunUntilIdle()
}

// TestFusionDefaultEngages proves the fast path is live out of the
// box: a default-config network reports Fused and actually fuses kick
// events while forwarding.
func TestFusionDefaultEngages(t *testing.T) {
	net := hotpathNet(t)
	if !net.Fused() {
		t.Fatal("default-config network is not fused")
	}
	runHotpathTraffic(net)
	if k := net.FusedKicks(); k == 0 {
		t.Error("traffic on a fused network produced no fused kicks")
	}
}

// TestFusionConfigOff pins the -fuse=false escape hatch: with
// Cfg.Fuse cleared the network never fuses, whatever the traffic.
func TestFusionConfigOff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fuse = false
	net := hotpathNetCfg(t, cfg)
	if net.Fused() {
		t.Fatal("Fuse=false network reports fused")
	}
	runHotpathTraffic(net)
	if k := net.FusedKicks(); k != 0 {
		t.Errorf("unfused network recorded %d fused kicks, want 0", k)
	}
}

// TestTamperDefuses pins the mutation-suite interaction: installing
// any non-zero tamper model forces per-hop de-fusion (the tampered
// forwarding path must be observable event by event), and restoring
// the zero Tamper re-arms fusion.
func TestTamperDefuses(t *testing.T) {
	net := hotpathNet(t)
	net.SetTamper(Tamper{SkipAdaptiveRoomCheck: true})
	if net.Fused() {
		t.Fatal("tampered network still fused")
	}
	before := net.FusedKicks()
	runHotpathTraffic(net)
	if k := net.FusedKicks(); k != before {
		t.Errorf("tampered network fused %d kicks", k-before)
	}
	net.SetTamper(Tamper{})
	if !net.Fused() {
		t.Fatal("zero Tamper did not re-arm fusion")
	}
	before = net.FusedKicks()
	runHotpathTraffic(net)
	if k := net.FusedKicks(); k == before {
		t.Error("re-armed network fused no kicks")
	}
}

// TestDefuseIsSticky: Defuse (the tracer's attach hook) outlives a
// tamper reset — once an observer demanded per-hop events, fusion
// stays off for the network's lifetime.
func TestDefuseIsSticky(t *testing.T) {
	net := hotpathNet(t)
	net.Defuse()
	if net.Fused() {
		t.Fatal("defused network reports fused")
	}
	net.SetTamper(Tamper{SkipAdaptiveRoomCheck: true})
	net.SetTamper(Tamper{})
	if net.Fused() {
		t.Fatal("tamper reset re-armed a defused network")
	}
	runHotpathTraffic(net)
	if k := net.FusedKicks(); k != 0 {
		t.Errorf("defused network recorded %d fused kicks, want 0", k)
	}
}

// TestSwitchHopZeroAllocsUnfused holds the per-hop event oracle to the
// same allocation bar as the fused path: the -fuse=false engine is the
// differential baseline and must stay benchmark-comparable.
func TestSwitchHopZeroAllocsUnfused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fuse = false
	net := hotpathNetCfg(t, cfg)
	sw := net.Switches[0]
	pkt := testPacket(net, 0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("unfused steady-state forwarding allocates %v objects per traversal, want 0", allocs)
	}
}

// BenchmarkSwitchHopUnfused measures the per-hop event oracle on the
// BenchmarkSwitchHop traversal; the delta against BenchmarkSwitchHop
// is what hop fusion buys.
func BenchmarkSwitchHopUnfused(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Fuse = false
	net := hotpathNetCfg(b, cfg)
	sw := net.Switches[0]
	pkt := testPacket(net, 0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
}
