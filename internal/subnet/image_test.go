package subnet

import (
	"fmt"
	"testing"

	"ibasim/internal/core"
	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/routing"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// oracleRouteEntries is the per-host resolution the table-image
// builder replaced, kept as the test oracle: the escape port and up to
// mr-1 adaptive ports for destination host dst as seen from switch s,
// with the §4.2 fence (no adaptive option into a deterministic-only
// switch other than the destination's).
func oracleRouteEntries(net *fabric.Network, fa *routing.FA, s, dst, mr int) (ib.PortID, []ib.PortID, error) {
	d := net.Topo.HostSwitch(dst)
	if d == s {
		p := net.HostPort(dst)
		return p, []ib.PortID{p}, nil
	}
	escape, err := net.PortToNeighbor(s, fa.Escape(s, d))
	if err != nil {
		return 0, nil, err
	}
	var adaptive []ib.PortID
	for _, hop := range fa.Options(s, d, mr-1) {
		if !net.Switches[hop].Enhanced() && d != hop {
			continue
		}
		p, err := net.PortToNeighbor(s, hop)
		if err != nil {
			return 0, nil, err
		}
		adaptive = append(adaptive, p)
	}
	return escape, adaptive, nil
}

// oracleTables computes every switch's full linear table for the
// network with the links in down failed, one destination host at a
// time, writing every slot of every block.
func oracleTables(t *testing.T, net *fabric.Network, opts Options, down []topology.Link) [][]ib.PortID {
	t.Helper()
	build := opts.Engine
	if build == nil {
		build = routing.UpDownBuilder(opts.Root)
	}
	eng, err := build(net.Topo.Without(down...))
	if err != nil {
		t.Fatal(err)
	}
	fa := eng.Adaptive()
	block := net.Plan.RangeSize()
	mr := opts.MaxRoutingOptions
	if mr <= 0 {
		mr = block
	}
	tables := make([][]ib.PortID, len(net.Switches))
	for s, sw := range net.Switches {
		tab := make([]ib.PortID, sw.Table().Len())
		for i := range tab {
			tab[i] = ib.InvalidPort
		}
		for dst := 0; dst < net.Topo.NumHosts(); dst++ {
			escape, adaptive, err := oracleRouteEntries(net, fa, s, dst, mr)
			if err != nil {
				t.Fatal(err)
			}
			base := net.Plan.BaseLID(dst)
			tab[base] = escape
			for off := 1; off < block; off++ {
				p := escape
				if sw.Enhanced() && len(adaptive) > 0 {
					p = adaptive[(off-1)%len(adaptive)]
				}
				tab[int(base)+off] = p
			}
		}
		tables[s] = tab
	}
	return tables
}

// assertTables compares every switch's live linear table with want,
// and every block's cached decode with a fresh decode of the same
// entries (a skipped invalidation would leave a stale decode).
func assertTables(t *testing.T, net *fabric.Network, want [][]ib.PortID, what string) {
	t.Helper()
	for s, sw := range net.Switches {
		tab := sw.Table()
		for lid := range want[s] {
			if got := tab.Get(ib.LID(lid)); got != want[s][lid] {
				t.Fatalf("%s: switch %d LID %d = port %d, want %d", what, s, lid, got, want[s][lid])
			}
		}
		assertDecodes(t, net, tab, what)
	}
}

func assertDecodes(t *testing.T, net *fabric.Network, tab *core.AdaptiveTable, what string) {
	t.Helper()
	fresh, err := core.NewAdaptiveTable(net.Plan.MaxLID(), net.Plan.LMC)
	if err != nil {
		t.Fatal(err)
	}
	for lid := 0; lid < tab.Len(); lid++ {
		if err := fresh.Set(ib.LID(lid), tab.Get(ib.LID(lid))); err != nil {
			t.Fatal(err)
		}
	}
	for dst := 0; dst < net.Topo.NumHosts(); dst++ {
		for _, adaptive := range []bool{false, true} {
			dlid := net.Plan.DLIDFor(dst, adaptive)
			e1, a1, err1 := tab.Lookup(dlid)
			e2, a2, err2 := fresh.Lookup(dlid)
			if e1 != e2 || fmt.Sprint(a1) != fmt.Sprint(a2) || (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: DLID %d decodes to (%d, %v, %v), fresh decode (%d, %v, %v)",
					what, dlid, e1, a1, err1, e2, a2, err2)
			}
		}
	}
}

// imageCase is one network shape of the oracle test.
type imageCase struct {
	name  string
	topo  func() (*topology.Topology, error)
	build routing.Builder
	mixed bool
}

func imageCases() []imageCase {
	ft := topology.FatTreeSpec{Arity: 2, Levels: 3}
	torus := topology.TorusSpec{Dims: []int{4, 3}, HostsPerSwitch: 2}
	var cases []imageCase
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		irr := func() (*topology.Topology, error) {
			return topology.GenerateIrregular(topology.IrregularSpec{
				NumSwitches: 12 + 4*int(seed), HostsPerSwitch: 3, InterSwitch: 4, Seed: seed,
			})
		}
		cases = append(cases,
			imageCase{name: fmt.Sprintf("irregular-%d", seed), topo: irr},
			imageCase{name: fmt.Sprintf("mixed-%d", seed), topo: irr, mixed: true})
	}
	return append(cases,
		imageCase{name: "fattree", topo: func() (*topology.Topology, error) { return topology.GenerateFatTree(ft) },
			build: routing.FatTreeBuilder(ft)},
		imageCase{name: "torus", topo: func() (*topology.Topology, error) { return topology.GenerateTorus(torus) },
			build: routing.TorusBuilder(torus)},
	)
}

// randomDownSet picks up to k links whose failure leaves topo
// connected.
func randomDownSet(topo *topology.Topology, rng *sim.RNG, k int) []topology.Link {
	var down []topology.Link
	for tries := 0; len(down) < k && tries < 4*k; tries++ {
		l := topo.Links[rng.Intn(len(topo.Links))]
		cand := append(append([]topology.Link(nil), down...), l)
		if topo.Without(cand...).Connected() {
			down = cand
		}
	}
	return down
}

// TestTableImagesMatchPerHostOracle checks the table-image builder
// against the per-host oracle after Configure, an atomic Reconfigure
// and a completed staged reconfiguration, over irregular (plain and
// mixed), fat-tree and torus fabrics, degraded by random failure sets,
// for every MR the LID range admits at LMC 1 and 2.
func TestTableImagesMatchPerHostOracle(t *testing.T) {
	for _, tc := range imageCases() {
		for _, lmc := range []uint{1, 2} {
			for _, mr := range []int{0, 1, 2, 4} {
				if mr > 1<<lmc {
					continue
				}
				tc, lmc, mr := tc, lmc, mr
				t.Run(fmt.Sprintf("%s/lmc%d/mr%d", tc.name, lmc, mr), func(t *testing.T) {
					topo, err := tc.topo()
					if err != nil {
						t.Fatal(err)
					}
					net := imageNet(t, topo, lmc, tc.mixed)
					opts := Options{MaxRoutingOptions: mr, Root: -1, Engine: tc.build}
					if _, err := Configure(net, opts); err != nil {
						t.Fatal(err)
					}
					assertTables(t, net, oracleTables(t, net, opts, nil), "configure")

					rng := sim.NewRNG(uint64(lmc)*10 + uint64(mr))
					first := randomDownSet(topo, rng, 2)
					if _, err := Reconfigure(net, opts, first...); err != nil {
						t.Fatal(err)
					}
					assertTables(t, net, oracleTables(t, net, opts, net.DownLinks()), "reconfigure")

					for _, l := range net.DownLinks() {
						if err := net.SetLinkUp(l.A, l.B); err != nil {
							t.Fatal(err)
						}
					}
					for _, l := range randomDownSet(topo, rng, 3) {
						if err := net.SetLinkDown(l.A, l.B); err != nil {
							t.Fatal(err)
						}
					}
					staged, err := ReconfigureStaged(net, opts, StagedOptions{SweepDelay: 500, PerSwitchDelay: 100})
					if err != nil {
						t.Fatal(err)
					}
					net.Engine.Run(staged.DoneAt)
					assertTables(t, net, oracleTables(t, net, opts, net.DownLinks()), "staged")
				})
			}
		}
	}
}

func imageNet(t *testing.T, topo *topology.Topology, lmc uint, mixed bool) *fabric.Network {
	t.Helper()
	plan, err := ib.NewAddressPlan(topo.NumHosts(), lmc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	if mixed {
		for s := 0; s < topo.NumSwitches; s += 2 {
			cfg.DeterministicOnly = append(cfg.DeterministicOnly, s)
		}
	}
	net, err := fabric.NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestOverlappingStagedSweepsMatchFullWrite starts a slow staged sweep
// and, in its middle, a fast one for a different failure set, so the
// two sweeps' installs interleave: the fast sweep reprograms the upper
// switches first and the slow one then overwrites them with its own,
// older routing. Every switch must end with exactly the image of the
// sweep that reached it last — what writing every slot would leave —
// and with decodes that match its entries.
func TestOverlappingStagedSweepsMatchFullWrite(t *testing.T) {
	net := buildNet(t, 16, 4, 7, 2, true)
	opts := Options{MaxRoutingOptions: 4, Root: -1}
	if _, err := Configure(net, opts); err != nil {
		t.Fatal(err)
	}
	l1, l2 := net.Topo.Links[0], net.Topo.Links[len(net.Topo.Links)-1]
	slow := StagedOptions{SweepDelay: 1_000, PerSwitchDelay: 1_000}
	if _, err := ReconfigureStaged(net, opts, slow, l1); err != nil {
		t.Fatal(err)
	}
	downA := net.DownLinks()
	const second = 5_000 // the slow sweep has reprogrammed switches 0..3
	net.Engine.Run(second)
	if err := net.SetLinkUp(l1.A, l1.B); err != nil {
		t.Fatal(err)
	}
	fast := StagedOptions{SweepDelay: 100, PerSwitchDelay: 100}
	if _, err := ReconfigureStaged(net, opts, fast, l2); err != nil {
		t.Fatal(err)
	}
	downB := net.DownLinks()
	net.Engine.RunUntilIdle()

	ra, err := Route(net, opts, downA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Route(net, opts, downB)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]ib.PortID, len(net.Switches))
	lastA, lastB := 0, 0
	for s, sw := range net.Switches {
		atA := slow.SweepDelay + sim.Time(s+1)*slow.PerSwitchDelay
		atB := second + fast.SweepDelay + sim.Time(s+1)*fast.PerSwitchDelay
		r := rb
		if atA > atB {
			r, lastA = ra, lastA+1
		} else {
			lastB++
		}
		tab := make([]ib.PortID, sw.Table().Len())
		for i := range tab {
			tab[i] = ib.InvalidPort
		}
		copy(tab[net.Plan.BaseLID(0):], r.images[s])
		want[s] = tab
	}
	if lastA == 0 || lastB == 0 {
		t.Fatalf("sweeps did not interleave: %d switches last written by the slow sweep, %d by the fast one", lastA, lastB)
	}
	assertTables(t, net, want, "overlapping sweeps")
}

// TestReconfigureKeepsMixedSubnetFence is the regression test for the
// §4.2 fence on the reconfiguration paths: after a link failure, both
// the atomic and the staged reconfiguration must leave no adaptive
// slot on an enhanced switch pointing at a deterministic-only
// neighbour other than the destination's switch (slots that repeat
// the escape port excepted), and traffic must drain.
func TestReconfigureKeepsMixedSubnetFence(t *testing.T) {
	for _, staged := range []bool{false, true} {
		net := mixedNet(t, 16, 3)
		if _, err := Configure(net, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		failed := net.Topo.Links[1]
		if staged {
			st, err := ReconfigureStaged(net, DefaultOptions(), DefaultStagedOptions(), failed)
			if err != nil {
				t.Fatal(err)
			}
			net.Engine.Run(st.DoneAt)
		} else if _, err := Reconfigure(net, DefaultOptions(), failed); err != nil {
			t.Fatal(err)
		}
		for s, sw := range net.Switches {
			if !sw.Enhanced() {
				continue
			}
			for dst := 0; dst < net.Topo.NumHosts(); dst++ {
				d := net.Topo.HostSwitch(dst)
				if d == s {
					continue
				}
				base := net.Plan.BaseLID(dst)
				escape := sw.Table().Get(base)
				for off := 1; off < net.Plan.RangeSize(); off++ {
					// A slot holding the escape port is the cycle-fill
					// of a block whose options were all fenced off: a
					// move along the escape table path, which the
					// fence allows.
					p := sw.Table().Get(base + ib.LID(off))
					m, ok := net.NeighborAt(s, p)
					if ok && p != escape && m != d && !net.Switches[m].Enhanced() {
						t.Fatalf("staged=%v: switch %d slot %d for dst %d leads into stock switch %d",
							staged, s, off, dst, m)
					}
				}
			}
		}
		rng := sim.NewRNG(7)
		hosts := net.Topo.NumHosts()
		delivered := 0
		net.OnDelivered = func(_ *ib.Packet) { delivered++ }
		for i := 0; i < 2500; i++ {
			src, dst := rng.Intn(hosts), rng.Intn(hosts)
			if src == dst {
				dst = (dst + 1) % hosts
			}
			net.Hosts[src].Send(dst, 32, rng.Bool(0.6))
		}
		if err := net.Drain(); err != nil {
			t.Fatalf("staged=%v: %v", staged, err)
		}
		if delivered != 2500 {
			t.Fatalf("staged=%v: delivered %d, want 2500", staged, delivered)
		}
	}
}

// TestReconfigureRoutesAroundEarlierFailures: an atomic Reconfigure
// routes around every link that is down, not only the ones it names.
func TestReconfigureRoutesAroundEarlierFailures(t *testing.T) {
	net := buildNet(t, 16, 4, 1, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	l1, l2 := net.Topo.Links[0], net.Topo.Links[5]
	if _, err := Reconfigure(net, DefaultOptions(), l1); err != nil {
		t.Fatal(err)
	}
	if _, err := Reconfigure(net, DefaultOptions(), l2); err != nil {
		t.Fatal(err)
	}
	for _, l := range []topology.Link{l1, l2} {
		for _, end := range [][2]int{{l.A, l.B}, {l.B, l.A}} {
			p, err := net.PortToNeighbor(end[0], end[1])
			if err != nil {
				t.Fatal(err)
			}
			tab := net.Switches[end[0]].Table()
			for lid := 0; lid < tab.Len(); lid++ {
				if tab.Get(ib.LID(lid)) == p {
					t.Fatalf("switch %d LID %d still routes over failed link %d-%d", end[0], lid, l.A, l.B)
				}
			}
		}
	}
}

// TestMultipathSurvivesReconfigure: a source-multipath network keeps
// its per-slot variant layout through a reconfiguration — the
// variants are recomputed on the surviving graph.
func TestMultipathSurvivesReconfigure(t *testing.T) {
	net := buildMultipathNet(t, 16, 4, 1, 2, 4)
	opts := Options{Root: -1, SourceMultipath: 4}
	if _, err := Configure(net, opts); err != nil {
		t.Fatal(err)
	}
	failed := net.Topo.Links[0]
	if _, err := Reconfigure(net, opts, failed); err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net.Topo.Without(failed))
	if err != nil {
		t.Fatal(err)
	}
	variants := make([]*routing.Deterministic, 4)
	for v := range variants {
		variants[v] = ud.TablesVariant(v)
	}
	for s, sw := range net.Switches {
		for dst := 0; dst < net.Topo.NumHosts(); dst++ {
			d := net.Topo.HostSwitch(dst)
			base := net.Plan.BaseLID(dst)
			for off := 0; off < 4; off++ {
				want := net.HostPort(dst)
				if d != s {
					if want, err = net.PortToNeighbor(s, variants[off].NextHop[s][d]); err != nil {
						t.Fatal(err)
					}
				}
				if got := sw.Table().Get(base + ib.LID(off)); got != want {
					t.Fatalf("switch %d dst %d slot %d = %d, want variant port %d", s, dst, off, got, want)
				}
			}
		}
	}
}
