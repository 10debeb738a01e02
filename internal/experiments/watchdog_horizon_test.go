package experiments

import (
	"testing"

	"ibasim/internal/faults"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// TestDefaultWatchdogCoversLargeSweep runs a default-timing flap
// campaign with a staged recovery after every event on 128 switches.
// The default staged sweep then takes 5 µs + 128 × 1 µs, longer than
// the watchdog's default 100 µs forward-progress horizon; packets
// parked on a stale table wait out the sweep, which is recovery
// working, so the default horizon must stretch to cover it. With the
// plain 100 µs default this seed reports 24 forward-progress
// violations.
func TestDefaultWatchdogCoversLargeSweep(t *testing.T) {
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: 128, HostsPerSwitch: 4, InterSwitch: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := faults.Parse("rand:20:15000@40000-160000; autoreconfig:10000")
	if err != nil {
		t.Fatal(err)
	}
	if w := camp.WatchdogFor(128); w.Horizon != 5_000+129*1_000+5_000 {
		t.Fatalf("default horizon for 128 switches = %d", w.Horizon)
	}
	sc := QuickScale()
	spec := sc.Spec(topo, 2, 32, 1.0, traffic.Uniform{NumHosts: topo.NumHosts()}, 3, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.01
	spec.Faults = camp
	spec.FaultSeed = 3
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.Reconfigs == 0 {
		t.Fatal("campaign completed no reconfiguration")
	}
	if res.Degraded.WatchdogViolations != 0 {
		t.Fatalf("%d watchdog violations, first: %s", res.Degraded.WatchdogViolations, res.Degraded.FirstViolation)
	}
}
