package fabric

// In-package hot-path tests: the per-hop forwarding path must not
// allocate at steady state. These live inside package fabric (rather
// than fabric_test) because they drive switch.receive directly and the
// subnet manager cannot be imported here without a cycle, so the
// forwarding tables are programmed by hand.

import (
	"runtime"
	"testing"

	"ibasim/internal/ib"
	"ibasim/internal/topology"
)

// hotpathNet wires a 2-switch line (4 hosts each, LMC 1) and programs
// every table slot of each destination block with the single correct
// port — the minimal fabric on which a packet exercises the full
// enhanced-switch path: table lookup, arbitration, credit-split
// checks, transmission, credit return, delivery.
func hotpathNet(tb testing.TB) *Network { return hotpathNetCfg(tb, DefaultConfig()) }

// hotpathNetCfg is hotpathNet with a caller-supplied fabric config —
// the unfused-variant tests flip Cfg.Fuse off to pin the per-hop event
// oracle to the same zero-alloc bar.
func hotpathNetCfg(tb testing.TB, cfg Config) *Network {
	tb.Helper()
	topo, err := topology.Line(2, 4)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for s, sw := range net.Switches {
		for dst := 0; dst < topo.NumHosts(); dst++ {
			var port ib.PortID
			if topo.HostSwitch(dst) == s {
				port = net.HostPort(dst)
			} else {
				port, err = net.PortToNeighbor(s, topo.HostSwitch(dst))
				if err != nil {
					tb.Fatal(err)
				}
			}
			base := plan.BaseLID(dst)
			for off := 0; off < plan.RangeSize(); off++ {
				if err := sw.Table().Set(base+ib.LID(off), port); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return net
}

// testPacket builds the packet Host.Send plus injection would produce
// (ID, DLID, SeqNo), for tests that feed sw.receive directly.
func testPacket(net *Network, src, dst, size int, adaptive bool) *ib.Packet {
	r := net.newRecord(dst, size, adaptive)
	return net.Hosts[src].packetOf(&r)
}

// TestSwitchHopZeroAllocsSteadyState is the alloc regression gate for
// the forwarding path: once table caches, object pools and slice
// capacities are warm, forwarding a packet across both switches to its
// destination CA — including the arbitration passes, credit returns
// and the delivery event — must perform zero heap allocations.
func TestSwitchHopZeroAllocsSteadyState(t *testing.T) {
	net := hotpathNet(t)
	sw := net.Switches[0]
	pkt := testPacket(net, 0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ { // warm pools, caches, backing arrays
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("steady-state forwarding allocates %v objects per traversal, want 0", allocs)
	}
}

// TestSwitchHopZeroAllocsDeterministic covers the stock-switch path
// (exact-DLID lookup, escape-only service) with a deterministic-service
// packet on enhanced switches.
func TestSwitchHopZeroAllocsDeterministic(t *testing.T) {
	net := hotpathNet(t)
	sw := net.Switches[0]
	pkt := testPacket(net, 0, 5, 32, false)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("steady-state deterministic forwarding allocates %v objects, want 0", allocs)
	}
}

// TestInjectZeroAllocsSteadyState extends the gate to the injection
// path: sending a packet, queueing its record at the source CA and
// running it through to delivery. Packet storage comes from the
// context's slab (one allocation per pktSlabSize packets) and the
// source queue reuses its record block, so the amortized per-packet
// figure must be the slab refill alone — well under 0.01 objects.
func TestInjectZeroAllocsSteadyState(t *testing.T) {
	net := hotpathNet(t)
	h := net.Hosts[0]
	inject := func() {
		h.Send(7, 32, true)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 600; i++ { // warm pools and span a slab boundary
		inject()
	}
	if allocs := testing.AllocsPerRun(2*pktSlabSize, inject); allocs > 2.5/pktSlabSize {
		t.Fatalf("steady-state injection allocates %v objects per packet, want at most the amortized slab refill (%v)", allocs, 2.5/pktSlabSize)
	}
}

// TestSendBacklogBytesPerPacket is the memory gate of an unbounded
// source queue past saturation: a host whose switch is down can never
// inject, so every packet it sends stays queued. Each must cost one
// send record and its share of a record block — at most 40 bytes —
// and no packet.
func TestSendBacklogBytesPerPacket(t *testing.T) {
	net := hotpathNet(t)
	if err := net.SetSwitchDown(0); err != nil {
		t.Fatal(err)
	}
	h := net.Hosts[0]
	const backlog = 10_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < backlog; i++ {
		h.Send(7, 32, i%2 == 0)
	}
	runtime.ReadMemStats(&after)
	if h.QueueLen() != backlog {
		t.Fatalf("queue holds %d packets, want %d", h.QueueLen(), backlog)
	}
	perPacket := float64(after.TotalAlloc-before.TotalAlloc) / backlog
	if perPacket > 40 {
		t.Fatalf("a queued packet costs %.1f bytes, want at most 40", perPacket)
	}
	t.Logf("%.1f bytes per queued packet", perPacket)
	if len(net.pktBlocks) != 0 {
		t.Fatalf("queued packets carved %d packet blocks, want none", len(net.pktBlocks))
	}
}

// BenchmarkSwitchHop measures one full two-switch traversal (receive
// at the ingress switch through delivery at the destination CA) at
// steady state.
func BenchmarkSwitchHop(b *testing.B) {
	net := hotpathNet(b)
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

// TestRecycleReturnsRecordBlocks: Network.Recycle hands a run's
// source-queue record blocks — queued or consumed — to the sweep's
// PacketArena, and the next network queues into them before
// allocating.
func TestRecycleReturnsRecordBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketArena = NewPacketArena()
	pooled := func() int {
		n := 0
		for b := cfg.PacketArena.recs; b != nil; b = b.next {
			n++
		}
		return n
	}
	backlog := func() *Network {
		net := hotpathNetCfg(t, cfg)
		if err := net.SetSwitchDown(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*recBlockLen; i++ {
			net.Hosts[0].Send(7, 32, true)
		}
		return net
	}
	net := backlog()
	net.Recycle()
	if got := pooled(); got != 4 {
		t.Fatalf("arena pools %d record blocks after Recycle, want 4", got)
	}
	net.Recycle() // a second call must not pool them twice
	if got := pooled(); got != 4 {
		t.Fatalf("arena pools %d record blocks after a second Recycle, want 4", got)
	}
	backlog()
	if got := pooled(); got != 0 {
		t.Fatalf("arena still pools %d record blocks after a rebuild, want 0", got)
	}
}
