package experiments

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// The shared fixture of the execution-mode differentials (hop fusion,
// the wake arbiter): a small irregular fabric under a moderate uniform
// load, run long enough for warm-up, a measured window and a drain.
// The differentials compare complete RunResults, floats included.

func diffTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func diffSpec(topo *topology.Topology, opts ...sim.EngineOption) RunSpec {
	cfg := fabric.DefaultConfig()
	cfg.EngineOpts = opts
	return RunSpec{
		Topo:    topo,
		LMC:     1,
		MR:      2,
		Fabric:  cfg,
		Traffic: traffic.Config{Pattern: traffic.Uniform{NumHosts: topo.NumHosts()}, PacketSize: 32, AdaptiveFraction: 0.75, LoadBytesPerNsPerHost: 0.03, Seed: 11},
		Warmup:  20_000, Measure: 100_000, DrainGrace: 30_000,
		Seed: 11,
	}
}
