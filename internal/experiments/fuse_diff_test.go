package experiments

import (
	"reflect"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/sim"
	"ibasim/internal/trace"
	"ibasim/internal/traffic"
)

// Hop fusion's whole value rests on one claim: the fused fast path is
// an optimization of the event schedule, not of the results. These
// tests enforce it with the unfused engine (-fuse=false) as the
// differential oracle, comparing complete RunResults — floats
// included — across queue geometries, schedulers, the invariant
// auditor, fault campaigns and a contention storm that forces constant
// de-fused fallbacks.

func fuseVariant(t *testing.T, spec RunSpec, fuse bool) RunResult {
	t.Helper()
	s := spec
	s.Fabric.Fuse = fuse
	res, err := Run(s)
	if err != nil {
		t.Fatalf("fuse=%v: %v", fuse, err)
	}
	return res
}

// TestFusionBitExact sweeps the calendar geometries of the scheduler
// differential (tiny wheels wrap and overflow constantly, so fused
// dispatches land in every structural regime) plus the heap scheduler,
// comparing fused runs against the unfused oracle.
func TestFusionBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full simulations")
	}
	topo := diffTopo(t)
	variants := []struct {
		name string
		opts []sim.EngineOption
	}{
		{"wheel-3-0", []sim.EngineOption{sim.WithWheelGeometry(3, 0)}},
		{"wheel-3-2", []sim.EngineOption{sim.WithWheelGeometry(3, 2)}},
		{"wheel-4-1", []sim.EngineOption{sim.WithWheelGeometry(4, 1)}},
		{"wheel-6-3", []sim.EngineOption{sim.WithWheelGeometry(6, 3)}},
		{"wheel-12-2", []sim.EngineOption{sim.WithWheelGeometry(12, 2)}},
		{"heap", []sim.EngineOption{sim.WithScheduler(sim.SchedulerHeap)}},
	}
	for _, v := range variants {
		spec := diffSpec(topo, v.opts...)
		want := fuseVariant(t, spec, false)
		if got := fuseVariant(t, spec, true); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fused diverged from unfused:\n got %+v\nwant %+v", v.name, got, want)
		}
	}
}

// TestFusionBitExactChecked repeats the differential with the heavy
// invariant auditor on: fusion must neither perturb results under
// audit nor trip the auditor, and the audit counters themselves (hop
// checks, heavy ticks) must match event for event.
func TestFusionBitExactChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	spec := diffSpec(diffTopo(t))
	spec.Check = true
	want := fuseVariant(t, spec, false)
	if want.Audit.HopChecks == 0 || want.Audit.HeavyTicks == 0 {
		t.Fatalf("auditor did not run: %+v", want.Audit)
	}
	if want.Audit.Violations != 0 {
		t.Fatalf("unfused oracle run is not clean: %+v", want.Audit)
	}
	if got := fuseVariant(t, spec, true); !reflect.DeepEqual(got, want) {
		t.Errorf("checked fused diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestFusionBitExactFaults runs a fault campaign fused and unfused: kick events around dead ports, staged
// recoveries and retry re-injections all cross the fusion quiescence
// test, and every degraded-mode observable must still match.
func TestFusionBitExactFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fault campaigns")
	}
	topo := diffTopo(t)
	l0, l1 := topo.Links[0], topo.Links[1]
	camp := &faults.Campaign{
		Events: []faults.Event{
			{At: 40_000, Kind: faults.LinkDown, A: l0.A, B: l0.B},
			{At: 70_000, Kind: faults.LinkUp, A: l0.A, B: l0.B},
			{At: 80_000, Kind: faults.LinkDown, A: l1.A, B: l1.B},
			{At: 130_000, Kind: faults.LinkUp, A: l1.A, B: l1.B},
		},
		AutoReconfig: 5_000,
		Watchdog:     faults.WatchdogConfig{SampleEvery: 5_000, Horizon: 120_000},
	}
	spec := diffSpec(topo)
	spec.Measure = 150_000
	spec.DrainGrace = 80_000
	spec.Faults = camp
	spec.FaultSeed = 3
	want := fuseVariant(t, spec, false)
	if want.Degraded.FaultsInjected == 0 || want.Degraded.Reconfigs == 0 {
		t.Fatalf("campaign did not exercise faults: %+v", want.Degraded)
	}
	if got := fuseVariant(t, spec, true); !reflect.DeepEqual(got, want) {
		t.Errorf("faults fused diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestFusionBitExactContentionStorm overloads a hot-spot destination
// far past saturation, the regime where the quiescence precondition
// fails most of the time and fused/unfused dispatch constantly
// interleaves with queued same-timestamp events — the hardest case for
// the exact-timing argument.
func TestFusionBitExactContentionStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs saturated simulations")
	}
	topo := diffTopo(t)
	hot, err := traffic.NewHotSpot(topo.NumHosts(), 0.4, sim.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	spec := diffSpec(topo)
	spec.Traffic.Pattern = hot
	spec.Traffic.LoadBytesPerNsPerHost = 0.25 // deep saturation
	want := fuseVariant(t, spec, false)
	got := fuseVariant(t, spec, true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("contention storm fused diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestFusionTraceIdentical pins the tracer contract: attaching a
// recorder de-fuses the network (FusedKicks stays zero even with
// Cfg.Fuse on), and the recorded per-hop event sequence is identical
// with fusion configured on or off.
func TestFusionTraceIdentical(t *testing.T) {
	spec := diffSpec(diffTopo(t))
	runTraced := func(fuse bool) (*trace.Recorder, uint64) {
		s := spec
		s.Fabric.Fuse = fuse
		rec := trace.NewRecorder(4096)
		var fusedKicks uint64
		var netRef *fabric.Network
		_, err := RunObserved(s, func(n *fabric.Network) {
			rec.Attach(n)
			netRef = n
		})
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		fusedKicks = netRef.FusedKicks()
		return rec, fusedKicks
	}
	recOn, kicksOn := runTraced(true)
	recOff, kicksOff := runTraced(false)
	if kicksOn != 0 || kicksOff != 0 {
		t.Errorf("tracer attached but kicks fused: fuse-on=%d fuse-off=%d, want 0", kicksOn, kicksOff)
	}
	if recOn.Total() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	if recOn.Total() != recOff.Total() {
		t.Errorf("event totals differ: fuse-on=%d fuse-off=%d", recOn.Total(), recOff.Total())
	}
	if recOn.AdaptiveHops != recOff.AdaptiveHops || recOn.EscapeHops != recOff.EscapeHops {
		t.Errorf("hop aggregates differ: on=%d/%d off=%d/%d",
			recOn.AdaptiveHops, recOn.EscapeHops, recOff.AdaptiveHops, recOff.EscapeHops)
	}
	on, off := recOn.Events(), recOff.Events()
	if !reflect.DeepEqual(on, off) {
		for i := range on {
			if i >= len(off) || on[i] != off[i] {
				t.Fatalf("traced sequences diverge at event %d:\n fuse-on  %s\n fuse-off %s", i, on[i], off[i])
			}
		}
		t.Fatalf("traced sequences differ in length: %d vs %d", len(on), len(off))
	}
}

// TestFusionKicksEngageInRealRuns complements the trace test from the
// other side: a plain fused run (no tracer) on the same spec must
// actually exercise the fast path.
func TestFusionKicksEngageInRealRuns(t *testing.T) {
	spec := diffSpec(diffTopo(t))
	spec.Fabric.Fuse = true
	var netRef *fabric.Network
	if _, err := RunObserved(spec, func(n *fabric.Network) { netRef = n }); err != nil {
		t.Fatal(err)
	}
	if k := netRef.FusedKicks(); k == 0 {
		t.Error("fused run recorded no fused kicks")
	}
}
