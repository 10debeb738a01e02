package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ibasim/internal/campaign"
	"ibasim/internal/experiments"
	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// defaultSeed is the seed the digests are pinned for.
const defaultSeed = 1

type pinKey struct {
	workload string
	seed     uint64
}

// pinned holds each workload's digest at the default seed: sha256 over
// every simulated statistic of every run (and the campaign table). A
// change that only speeds the simulator up must leave them unchanged.
var pinned = map[pinKey]string{
	{"fig3-irregular32", defaultSeed}: "364c8dbe847220ad36dac5296500845570b43d6dc14ce36a02118421926edf54",
	{"torus-hotspot", defaultSeed}:    "8e9ac96f6f7715bad3b92ccb2a1141863646dbc0a0434086e9d93804cd9178ba",
	{"fault-churn", defaultSeed}:      "d1f04e6ba4ab60267304e25067f2fbba143eb765b77eba080edec7984f07d85d",
	{"campaign-cold", defaultSeed}:    "0c5835326cd6266c3619fdd2f17fea5f7adfabfb481ff9affbee8a6b0534302f",
}

// workloads maps each workload name to the builder of its inputs.
// Why each exists is in README.md.
var workloads = map[string]func(config) (*instance, error){
	"fig3-irregular32": fig3Irregular32,
	"torus-hotspot":    torusHotspot,
	"fault-churn":      faultChurn,
	"campaign-cold":    campaignCold,
}

// job is one simulation of a workload. Consecutive jobs with the same
// sweep index >= 0 are the points of one experiments.LoadSweep and share
// its queue arena; sweep -1 marks a stand-alone experiments.Run. Sweeps
// with the same panel index >= 0 share a packet arena, as the sweeps of
// one Figure 3 panel do.
type job struct {
	spec  experiments.RunSpec
	sweep int
	panel int
}

// instance is one workload's generated inputs.
type instance struct {
	name string
	seed uint64
	jobs []job
	// parallel is how many jobs the public path runs at once; the
	// reconstruction uses the same pool size, capped at GOMAXPROCS.
	parallel int
	// genTopo generates the workload's topology as the public path does.
	genTopo func() error
	// setup is one set-up as the public path pays it before its first
	// simulated event; cleanup (nil if none) removes what the set-ups
	// left behind.
	setup   func() error
	cleanup func()
	// public runs one iteration through the public entry point, timing
	// only that call, and checks its output against the reference.
	public func(ref *reference) (sample, error)
	// camp is set on the campaign workload.
	camp *campInst
	// scratch is the directory stores are created in.
	scratch string
}

// reference is the untraced step-by-step run every iteration is
// checked against.
type reference struct {
	results []experiments.RunResult
	table   []byte // the campaign's aggregate table
	digest  string
	hops    uint64
}

// reference runs every job once, untraced, and digests the results.
func (in *instance) reference() (*reference, error) {
	results, _, err := in.runJobs(nil, 0)
	if err != nil {
		return nil, err
	}
	ref := &reference{results: results}
	if ref.digest, ref.table, err = in.digest(results); err != nil {
		return nil, err
	}
	for _, res := range results {
		ref.hops += res.Audit.HopChecks
	}
	return ref, nil
}

// digest digests a workload's results, with the campaign's table
// aggregated from them, and returns the table too.
func (in *instance) digest(results []experiments.RunResult) (string, []byte, error) {
	var table []byte
	if in.camp != nil {
		var err error
		if table, err = in.camp.table(results); err != nil {
			return "", nil, err
		}
	}
	return digestOf(results, table), table, nil
}

// digestOf hashes every simulated statistic of every run, in job
// order, then the campaign table. Execution artifacts (ShardStats) are
// excluded: they are not simulation observables.
func digestOf(results []experiments.RunResult, table []byte) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, res := range results {
		res.ShardStats = nil
		if err := enc.Encode(res); err != nil {
			panic(err) // RunResult holds only finite numbers and strings
		}
	}
	h.Write(table)
	return hex.EncodeToString(h.Sum(nil))
}

// runFailed reports what makes a finished run count as failed beyond
// a returned error: an auditor or watchdog violation.
func runFailed(res experiments.RunResult) error {
	if res.Audit.Violations > 0 {
		return fmt.Errorf("auditor: %s", res.Audit.First)
	}
	if res.Degraded.WatchdogViolations > 0 {
		return fmt.Errorf("watchdog: %s", res.Degraded.FirstViolation)
	}
	return nil
}

// shrink cuts a scale's simulated windows for the smoke test.
func shrink(sc *experiments.Scale) {
	sc.Warmup /= 10
	sc.Measure /= 10
	sc.DrainGrace /= 10
}

// setupNetwork is the set-up every in-process run pays: topology
// generation, then the first three steps of the reconstruction.
func (in *instance) setupNetwork() error {
	if err := in.genTopo(); err != nil {
		return err
	}
	_, err := newConfigured(in.jobs[0].spec, nil, 0, &runStats{})
	return err
}

// fig3Panels is how many Figure 3 panels, each on its own topology,
// one fig3-irregular32 iteration computes. Figure 3's work varies by
// about ±10% with the topology; averaging two panels halves the part of
// the run-to-run spread that comes from the seed.
const fig3Panels = 2

// fig3Irregular32 is experiments.Figure3 at quick scale on 32-switch
// irregular networks: 5 adaptive fractions x 5 load points, uniform
// traffic, 32-byte packets, one panel per topology.
func fig3Irregular32(cfg config) (*instance, error) {
	const switches = 32
	in := &instance{name: cfg.workload, seed: cfg.seed, scratch: cfg.scratch}
	var scales []experiments.Scale
	for p := 0; p < fig3Panels; p++ {
		sc := experiments.QuickScale()
		sc.FirstSeed = cfg.seed*fig3Panels + uint64(p)
		if cfg.tiny {
			shrink(&sc)
		}
		irr := topology.IrregularSpec{NumSwitches: switches, HostsPerSwitch: sc.HostsPerSw, InterSwitch: 4}
		topos, err := topology.GenerateSeedSet(irr, sc.FirstSeed, 1)
		if err != nil {
			return nil, err
		}
		topo := topos[0]
		loads := experiments.DefaultLoads(sc.LoadLo, sc.LoadHi, sc.LoadPoints)
		in.parallel = min(runtime.GOMAXPROCS(0), len(loads))
		if p == 0 {
			in.genTopo = func() error {
				_, err := topology.GenerateSeedSet(irr, sc.FirstSeed, sc.Topologies)
				return err
			}
		}
		for i, frac := range experiments.Figure3Fractions {
			spec := sc.Spec(topo, 2, 32, frac, traffic.Uniform{NumHosts: topo.NumHosts()}, sc.FirstSeed, true)
			for _, load := range loads {
				s := spec
				s.Traffic.LoadBytesPerNsPerHost = load
				in.jobs = append(in.jobs, job{spec: s, sweep: p*len(experiments.Figure3Fractions) + i, panel: p})
			}
		}
		scales = append(scales, sc)
	}
	in.setup = in.setupNetwork
	in.public = func(ref *reference) (sample, error) {
		var out []*experiments.Figure3Result
		s, err := timed(func() error {
			for _, sc := range scales {
				res, err := experiments.Figure3(sc, switches)
				if err != nil {
					return err
				}
				out = append(out, res)
			}
			return nil
		})
		if err != nil {
			return s, err
		}
		k := 0
		for _, panel := range out {
			for _, series := range panel.Series {
				for _, p := range series.Points {
					if k >= len(ref.results) {
						return s, errMismatch
					}
					want := ref.results[k]
					if p.Offered != want.OfferedPerSwitch || p.Accepted != want.AcceptedPerSwitch || p.AvgLatency != want.AvgLatencyNs {
						return s, fmt.Errorf("point %d: %w", k, errMismatch)
					}
					k++
				}
			}
		}
		if k != len(ref.results) {
			return s, errMismatch
		}
		return s, nil
	}
	return in, nil
}

// runSeries wires a workload made of experiments.Run calls, one after
// the other.
func runSeries(cfg config, specs []experiments.RunSpec, genTopo func() error) *instance {
	in := &instance{
		name: cfg.workload, seed: cfg.seed, scratch: cfg.scratch,
		parallel: 1,
		genTopo:  genTopo,
	}
	for _, spec := range specs {
		in.jobs = append(in.jobs, job{spec: spec, sweep: -1, panel: -1})
	}
	in.setup = in.setupNetwork
	in.public = func(ref *reference) (sample, error) {
		var results []experiments.RunResult
		s, err := timed(func() error {
			for _, spec := range specs {
				res, err := experiments.Run(spec)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
			return nil
		})
		if err != nil {
			return s, err
		}
		for _, res := range results {
			if err := runFailed(res); err != nil {
				return s, err
			}
		}
		if digestOf(results, nil) != ref.digest {
			return s, errMismatch
		}
		return s, nil
	}
	return in
}

// torusRuns is how many runs, each with its own hot-spot host and
// traffic streams, one torus-hotspot iteration makes. Where the hot
// spot lands moves the hop count by ±15%; averaging four placements
// halves the part of the run-to-run spread that comes from the seed.
const torusRuns = 4

// torusHotspot is runs on an 8x8 torus past saturation: 4 hosts per
// switch, MR=4, 100% adaptive, 20% hot-spot traffic at 0.15
// bytes/ns/host.
func torusHotspot(cfg config) (*instance, error) {
	fam, err := experiments.ParseFamily("torus:8x8")
	if err != nil {
		return nil, err
	}
	sc := experiments.QuickScale()
	sc.Measure = 300_000
	if cfg.tiny {
		shrink(&sc)
	}
	irr := topology.IrregularSpec{HostsPerSwitch: sc.HostsPerSw}
	topo, err := fam.Topology(irr)
	if err != nil {
		return nil, err
	}
	var specs []experiments.RunSpec
	for k := uint64(0); k < torusRuns; k++ {
		seed := cfg.seed*torusRuns + k
		pat, err := experiments.BuildPattern(experiments.PatternSpec{Kind: "hot-spot", Fraction: 0.20}, topo.NumHosts(), seed)
		if err != nil {
			return nil, err
		}
		spec := sc.Spec(topo, 4, 32, 1.0, pat, seed, true)
		spec.Routing = fam.Routing()
		spec.Traffic.LoadBytesPerNsPerHost = 0.15
		specs = append(specs, spec)
	}
	return runSeries(cfg, specs, func() error { _, err := fam.Topology(irr); return err }), nil
}

// faultChurn is a 128-switch irregular network at light uniform load
// under a seeded random link-flap campaign with staged
// reconfiguration after every fault and repair.
func faultChurn(cfg config) (*instance, error) {
	sc := experiments.QuickScale()
	sc.FirstSeed = cfg.seed
	flaps, from, to, down, gap, perSwitch := 20, 40_000, 160_000, 15_000, 10_000, 200
	if cfg.tiny {
		shrink(&sc)
		flaps, from, to, down, gap, perSwitch = 3, 4_000, 16_000, 1_500, 1_000, 20
	}
	irr := topology.IrregularSpec{NumSwitches: 128, HostsPerSwitch: sc.HostsPerSw, InterSwitch: 4, Seed: cfg.seed}
	topo, err := topology.GenerateIrregular(irr)
	if err != nil {
		return nil, err
	}
	// The staged sweep reprograms one switch every perSwitch ns, and the
	// watchdog's forward-progress horizon is set well past a whole sweep
	// (128 switches): packets parked on a stale table wait for their
	// switch's turn, which is recovery working, not a stall. With the
	// default 1 µs per switch a sweep takes 133 µs, longer than the
	// default 100 µs horizon, and the watchdog flags such parks.
	camp, err := faults.Parse(fmt.Sprintf("rand:%d:%d@%d-%d; autoreconfig:%d; sweep:5000:%d; watchdog:5000:300000",
		flaps, down, from, to, gap, perSwitch))
	if err != nil {
		return nil, err
	}
	spec := sc.Spec(topo, 2, 32, 1.0, traffic.Uniform{NumHosts: topo.NumHosts()}, cfg.seed, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.01
	spec.Faults = camp
	spec.FaultSeed = cfg.seed
	return runSeries(cfg, []experiments.RunSpec{spec}, func() error { _, err := topology.GenerateIrregular(irr); return err }), nil
}

// campInst is the campaign workload's plan and the spec it came from.
type campInst struct {
	spec    []byte
	plan    *campaign.Plan
	workers int
	scratch string
	// setupDir is the empty store every set-up opens.
	setupDir string
}

// campaignCold is a 40-job campaign on a fresh store: 16 switches,
// uniform and 20% hot-spot traffic, adaptive fractions {0,1}, 2 seeds,
// 5 loads, a short window.
func campaignCold(cfg config) (*instance, error) {
	warm, measure, drain := 10_000, 40_000, 10_000
	if cfg.tiny {
		warm, measure, drain = warm/10, measure/10, drain/10
	}
	spec := []byte(fmt.Sprintf(`{"name": "perfbench", "sizes": [16], "links": 4, "mr": 2, "packetSizes": [32],
		"patterns": ["uniform", "hot-spot:0.2"], "adaptiveFractions": [0, 1], "seeds": 2, "firstSeed": %d,
		"loadLo": 0.004, "loadHi": 0.05, "loadPoints": 5, "warmupNs": %d, "measureNs": %d, "drainGraceNs": %d}`,
		cfg.seed, warm, measure, drain))
	parsed, err := campaign.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	plan, err := parsed.Expand()
	if err != nil {
		return nil, err
	}
	c := &campInst{
		spec: spec, plan: plan, workers: campaignWorkers(), scratch: cfg.scratch,
		setupDir: filepath.Join(cfg.scratch, fmt.Sprintf("setup-%d", os.Getpid())),
	}
	in := &instance{
		name: cfg.workload, seed: cfg.seed, scratch: cfg.scratch,
		parallel: c.workers,
		camp:     c,
	}
	for _, j := range plan.Jobs {
		rs, err := jobRunSpec(j.Spec)
		if err != nil {
			return nil, err
		}
		in.jobs = append(in.jobs, job{spec: rs, sweep: -1, panel: -1})
	}
	in.genTopo = func() error {
		_, err := jobTopology(plan.Jobs[0].Spec)
		return err
	}
	in.setup = c.setup
	in.cleanup = func() { os.RemoveAll(c.setupDir) }
	in.public = func(ref *reference) (sample, error) {
		s, _, err := c.cold(ref, false)
		return s, err
	}
	return in, nil
}

// setup is the campaign's set-up: parse, expand, open an empty store.
// The first set-up creates the store's directories; later ones find
// them, so the timed set-ups leave directory creation, a filesystem
// latency that is noisy on a shared host, out of the figure.
func (c *campInst) setup() error {
	parsed, err := campaign.ParseSpec(c.spec)
	if err != nil {
		return err
	}
	if _, err := parsed.Expand(); err != nil {
		return err
	}
	_, err = campaign.Open(c.setupDir)
	return err
}

// cold runs the campaign on a fresh store, timing only campaign.Run,
// checks the table and every stored artifact against the reference,
// and removes the store. With resume it also times a second
// campaign.Run against the filled store — the read path.
func (c *campInst) cold(ref *reference, resume bool) (sample, time.Duration, error) {
	dir, err := os.MkdirTemp(c.scratch, "store-")
	if err != nil {
		return sample{}, 0, err
	}
	defer os.RemoveAll(dir)
	store, err := campaign.Open(dir)
	if err != nil {
		return sample{}, 0, err
	}
	opts := campaign.Options{Workers: c.workers}
	var rep *campaign.Report
	s, err := timed(func() error {
		var err error
		rep, err = campaign.Run(context.Background(), c.plan, store, opts)
		return err
	})
	if err != nil {
		return s, 0, err
	}
	var table bytes.Buffer
	if err := rep.Table.Write(&table); err != nil {
		return s, 0, err
	}
	if !bytes.Equal(table.Bytes(), ref.table) {
		return s, 0, fmt.Errorf("campaign table: %w", errMismatch)
	}
	for i, j := range c.plan.Jobs {
		got, err := store.Get(j.Hash)
		if err != nil {
			return s, 0, err
		}
		want, err := campaign.EncodeArtifact(j.Hash, ref.results[i])
		if err != nil {
			return s, 0, err
		}
		if !bytes.Equal(got, want) {
			return s, 0, fmt.Errorf("artifact %s: %w", j.Hash[:12], errMismatch)
		}
	}
	if !resume {
		return s, 0, nil
	}
	start := time.Now()
	rep, err = campaign.Run(context.Background(), c.plan, store, opts)
	d := time.Since(start)
	if err != nil {
		return s, d, err
	}
	if rep.Cached != len(c.plan.Jobs) {
		return s, d, fmt.Errorf("resume ran %d job(s) again", rep.Done)
	}
	return s, d, nil
}

// table aggregates reference results exactly as the coordinator
// aggregates stored artifacts.
func (c *campInst) table(results []experiments.RunResult) ([]byte, error) {
	bodies := make(map[string][]byte, len(results))
	for i, j := range c.plan.Jobs {
		b, err := campaign.EncodeArtifact(j.Hash, results[i])
		if err != nil {
			return nil, err
		}
		bodies[j.Hash] = b
	}
	t, err := campaign.Aggregate(c.plan, func(h string) ([]byte, error) {
		b, ok := bodies[h]
		if !ok {
			return nil, campaign.ErrNotFound
		}
		return b, nil
	}, false)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jobTopology regenerates a campaign job's topology from its spec.
func jobTopology(j experiments.JobSpec) (*topology.Topology, error) {
	return topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: j.Switches, HostsPerSwitch: j.HostsPerSwitch, InterSwitch: j.Links, Seed: j.TopoSeed,
	})
}

// jobRunSpec builds the RunSpec a campaign worker executes for a job
// (experiments.JobSpec.Execute with default execution hints); the
// reference digest proves the two agree.
func jobRunSpec(j experiments.JobSpec) (experiments.RunSpec, error) {
	j.Normalize()
	topo, err := jobTopology(j)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	pat, err := experiments.BuildPattern(j.Pattern, topo.NumHosts(), j.Seed)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	fcfg := fabric.DefaultConfig()
	fcfg.AdaptiveSwitches = j.Enhanced
	spec := experiments.RunSpec{
		Topo:   topo,
		LMC:    lmcFor(j.MR),
		MR:     j.MR,
		Fabric: fcfg,
		Traffic: traffic.Config{Pattern: pat, PacketSize: j.PacketSize, AdaptiveFraction: j.AdaptiveFraction,
			LoadBytesPerNsPerHost: j.Load, Seed: j.Seed},
		Warmup:     sim.Time(j.WarmupNs),
		Measure:    sim.Time(j.MeasureNs),
		DrainGrace: sim.Time(j.DrainGraceNs),
		Seed:       j.Seed,
	}
	if j.Faults != "" {
		c, err := faults.Parse(j.Faults)
		if err != nil {
			return experiments.RunSpec{}, err
		}
		spec.Faults, spec.FaultSeed = c, j.FaultSeed
	}
	return spec, nil
}

// lmcFor is the smallest LMC (at least 1) whose address block holds MR
// routing options, the rule the experiment harnesses apply.
func lmcFor(mr int) uint {
	lmc := uint(1)
	for 1<<lmc < mr {
		lmc++
	}
	return lmc
}
