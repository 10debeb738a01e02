package faults

import (
	"strings"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/routing"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
)

// countingEngine counts deadlock-freedom checks.
type countingEngine struct {
	routing.Engine
	verifies *int
}

func (e countingEngine) Verify() error {
	*e.verifies++
	return e.Engine.Verify()
}

// memoNet is a configured 16-switch network whose routing builder
// counts how many routings are built and verified.
func memoNet(t *testing.T) (net *fabric.Network, ropts subnet.Options, builds, verifies *int) {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: 16, HostsPerSwitch: 2, InterSwitch: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if net, err = fabric.NewNetwork(topo, plan, fabric.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	builds, verifies = new(int), new(int)
	ropts = subnet.DefaultOptions()
	ropts.Engine = func(t *topology.Topology) (routing.Engine, error) {
		*builds++
		eng, err := routing.UpDownBuilder(-1)(t)
		if err != nil {
			return nil, err
		}
		return countingEngine{eng, verifies}, nil
	}
	if _, err := subnet.Configure(net, ropts); err != nil {
		t.Fatal(err)
	}
	return net, ropts, builds, verifies
}

// applyAndStep applies the campaign and returns a function that runs
// the network to a time and reports the memoized routing there.
func applyAndStep(t *testing.T, net *fabric.Network, c *Campaign, ropts subnet.Options) (*Injector, func(sim.Time) *subnet.Routing) {
	t.Helper()
	c.SweepDelay, c.PerSwitchDelay = 1_000, 100
	inj, err := Apply(net, c, 1, ropts)
	if err != nil {
		t.Fatal(err)
	}
	return inj, func(at sim.Time) *subnet.Routing {
		net.Engine.Run(at)
		if err := inj.Err(); err != nil {
			t.Fatal(err)
		}
		return inj.routed
	}
}

func TestRepeatedDownSetReusesRouting(t *testing.T) {
	net, ropts, builds, verifies := memoNet(t)
	l := net.Topo.Links[0]
	inj, at := applyAndStep(t, net, &Campaign{Events: []Event{
		{At: 10_000, Kind: LinkDown, A: l.A, B: l.B},
		{At: 20_000, Kind: Reconfig},
		{At: 40_000, Kind: Reconfig},
	}}, ropts)
	r1 := at(30_000)
	r2 := at(60_000)
	if r1 == nil || r1 != r2 || r1.FA != r2.FA {
		t.Fatalf("same failure set recomputed: %p then %p", r1, r2)
	}
	if inj.ReconfigsDone != 2 {
		t.Fatalf("%d staged recoveries completed, want 2", inj.ReconfigsDone)
	}
	if *builds != 2 || *verifies != *builds {
		t.Fatalf("%d routings built, %d verified; want 2 (configure + one), all verified", *builds, *verifies)
	}
}

func TestChangedDownSetRecomputes(t *testing.T) {
	net, ropts, builds, verifies := memoNet(t)
	a, b := net.Topo.Links[0], net.Topo.Links[3]
	_, at := applyAndStep(t, net, &Campaign{Events: []Event{
		{At: 10_000, Kind: LinkDown, A: a.A, B: a.B},
		{At: 20_000, Kind: Reconfig},
		{At: 30_000, Kind: LinkUp, A: a.A, B: a.B},
		{At: 30_000, Kind: LinkDown, A: b.A, B: b.B},
		{At: 40_000, Kind: Reconfig},
		{At: 50_000, Kind: LinkUp, A: b.A, B: b.B},
		{At: 50_000, Kind: LinkDown, A: a.A, B: a.B},
		{At: 60_000, Kind: Reconfig},
	}}, ropts)
	rA := at(25_000)
	rB := at(45_000)
	rA2 := at(80_000)
	if rA == rB || rB == rA2 || rA == rA2 {
		t.Fatalf("A -> B -> A reused a routing: %p %p %p", rA, rB, rA2)
	}
	if !rA2.Avoids(rA.Down) || rA2.Avoids(rB.Down) {
		t.Fatalf("routing keys: A %v, B %v, A again %v", rA.Down, rB.Down, rA2.Down)
	}
	if *builds != 4 || *verifies != *builds {
		t.Fatalf("%d routings built, %d verified; want 4, all verified", *builds, *verifies)
	}
}

func TestSwitchDownChangesKey(t *testing.T) {
	net, ropts, _, _ := memoNet(t)
	l := net.Topo.Links[0]
	sw := net.Topo.Links[len(net.Topo.Links)-1].B
	inj, at := applyAndStep(t, net, &Campaign{Events: []Event{
		{At: 10_000, Kind: LinkDown, A: l.A, B: l.B},
		{At: 20_000, Kind: Reconfig},
		{At: 30_000, Kind: SwitchDown, Switch: sw},
		{At: 40_000, Kind: Reconfig},
	}}, ropts)
	r := at(35_000)
	if r.Avoids(net.DownLinks()) {
		t.Fatal("a failed switch left the failure set unchanged")
	}
	// The dead switch is cut off, so routing around it must fail: the
	// stale routing is not reinstalled.
	net.Engine.Run(45_000)
	if err := inj.Err(); err == nil || !strings.Contains(err.Error(), "disconnect") {
		t.Fatalf("reconfiguration after a switch failure: err = %v, want a disconnection", err)
	}
}
