package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ibasim/internal/campaign"
	"ibasim/internal/experiments"
	"ibasim/internal/faults"
	"ibasim/internal/ib"
	"ibasim/internal/routing"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
)

// units names the unit of every metric the benchmark reports.
var units = map[string]string{
	"wall_s":     "s",
	"cpu_s":      "s",
	"setup_s":    "s",
	"hops_per_s": "1/s",
	"jobs_per_s": "1/s",
	"alloc_mb":   "MB",

	"fabric.run_s":                 "s",
	"fabric.hops":                  "count",
	"fabric.ns_per_hop":            "ns",
	"fabric.arb_parks":             "count",
	"fabric.new_network_ms":        "ms",
	"fabric.link_util":             "frac",
	"sim.events":                   "count",
	"sim.ns_per_event":             "ns",
	"core.lookup_ns":               "ns",
	"check.ns_per_hop":             "ns",
	"check.hop_checks":             "count",
	"subnet.configure_ms":          "ms",
	"subnet.reconfigure_ms":        "ms",
	"subnet.reconfigs":             "count",
	"subnet.share":                 "frac",
	"routing.verify_ms":            "ms",
	"topology.generate_ms":         "ms",
	"faults.injected":              "count",
	"faults.watchdog_samples":      "count",
	"metrics.finalize_ms":          "ms",
	"reorder.peak_held":            "count",
	"campaign.store_put_ms":        "ms",
	"campaign.store_get_ms":        "ms",
	"campaign.job_ms":              "ms",
	"campaign.sim_ms_per_job":      "ms",
	"campaign.overhead_ms_per_job": "ms",
	"campaign.resume_ms":           "ms",
	"experiments.run_s":            "s",
	"experiments.runs":             "count",
	"trace.overhead_s":             "s",
}

// span is one timed call into a layer. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing and reads
// no clock, which is how the untraced runs use the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its children cover (children of one parent may overlap
// when they run on a pool).
func selfTimes(spans []span) map[string]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := map[string]int64{}
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// traceFile is what the traced run writes once, at the end.
type traceFile struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Host      host             `json:"host"`
	Spans     []span           `json:"spans"`
	SelfNs    map[string]int64 `json:"self_ns"`
	OverheadS float64          `json:"trace_overhead_s"`
}

// traceRounds is the traced run. Each round, for cfg.seconds and at
// least once, runs a public iteration, the untraced and the traced
// step-by-step reconstruction, and the per-layer side measurements;
// each per-layer metric is the median over the rounds. The last
// round's spans are written to cfg.spans.
func traceRounds(cfg config, in *instance, ref *reference, r *result) error {
	samples := map[string][]float64{}
	var last *tracer
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		m, tr, err := in.tracedRound(ref, r)
		if err != nil {
			return fmt.Errorf("%s: traced round %d: %w", cfg.workload, round, err)
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
		last = tr
	}
	for name, xs := range samples {
		r.report(name, xs)
	}
	if cfg.spans == "" {
		return nil
	}
	out := traceFile{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Host:      r.Host,
		Spans:     last.spans,
		SelfNs:    selfTimes(last.spans),
		OverheadS: r.Metrics["trace.overhead_s"].Value,
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(cfg.spans, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", cfg.spans)
	return nil
}

// reconstructAll runs topology generation and every job step by step,
// and checks the results against the reference. It returns the wall
// time of the whole and the generation time (zero untraced).
func (in *instance) reconstructAll(tr *tracer, ref *reference, r *result) ([]experiments.RunResult, []runStats, time.Duration, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	root := tr.begin("workload", 0)
	sp := tr.begin("topology.generate", root)
	err := in.genTopo()
	gen := tr.end(sp)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	results, stats, err := in.runJobs(tr, root)
	tr.end(root)
	wall := time.Since(t0)
	r.Attempted += len(in.jobs)
	if err == nil {
		var got string
		if got, _, err = in.digest(results); err == nil && got != ref.digest {
			err = fmt.Errorf("reconstruction digest %s, reference %s: %w", got, ref.digest, errMismatch)
		}
	}
	if err != nil {
		r.Failed += len(in.jobs)
		return nil, nil, 0, 0, err
	}
	return results, stats, wall, gen, nil
}

// tracedRound runs one round and returns its per-layer metrics and
// the tracer of its traced reconstruction.
func (in *instance) tracedRound(ref *reference, r *result) (map[string]float64, *tracer, error) {
	// The public iteration gives what one job costs on the public path.
	runtime.GC()
	var pub sample
	var resume time.Duration
	var err error
	if in.camp != nil {
		pub, resume, err = in.camp.cold(ref, true)
	} else {
		pub, err = in.public(ref)
	}
	r.Attempted += len(in.jobs)
	if err != nil {
		r.Failed += len(in.jobs)
		return nil, nil, fmt.Errorf("public iteration: %w", err)
	}
	_, _, untraced, _, err := in.reconstructAll(nil, ref, r)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	results, stats, traced, genTime, err := in.reconstructAll(tr, ref, r)
	if err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	var run, newNet, conf, fin, total time.Duration
	var hops, events, parks, reconfigs, injected, samplesWD uint64
	var util float64
	peak := 0
	for i, st := range stats {
		run += st.run
		newNet += st.newNetwork
		conf += st.configure
		fin += st.finalize
		total += st.total
		hops += st.hops
		events += st.events
		parks += st.parks
		util += st.linkUtil
		res := results[i]
		reconfigs += uint64(res.Degraded.Reconfigs)
		injected += uint64(res.Degraded.FaultsInjected)
		samplesWD += res.Degraded.WatchdogSamples
		peak = max(peak, res.ReorderPeakHeld)
	}
	n := float64(len(stats))
	m["fabric.run_s"] = run.Seconds()
	m["fabric.hops"] = float64(hops)
	m["fabric.ns_per_hop"] = float64(run.Nanoseconds()) / float64(hops)
	m["fabric.arb_parks"] = float64(parks)
	m["fabric.new_network_ms"] = ms(newNet) / n
	m["fabric.link_util"] = util / n
	m["sim.events"] = float64(events)
	m["sim.ns_per_event"] = float64(run.Nanoseconds()) / float64(events)
	m["check.hop_checks"] = float64(hops)
	m["subnet.configure_ms"] = ms(conf) / n
	m["subnet.reconfigs"] = float64(reconfigs)
	m["topology.generate_ms"] = ms(genTime)
	m["faults.injected"] = float64(injected)
	m["faults.watchdog_samples"] = float64(samplesWD)
	m["metrics.finalize_ms"] = ms(fin) / n
	m["reorder.peak_held"] = float64(peak)
	m["experiments.run_s"] = total.Seconds()
	m["experiments.runs"] = n
	m["trace.overhead_s"] = (traced - untraced).Seconds()

	if m["core.lookup_ns"], err = in.lookupNs(); err != nil {
		return nil, nil, err
	}
	if m["routing.verify_ms"], err = in.verifyMs(); err != nil {
		return nil, nil, err
	}
	if m["subnet.reconfigure_ms"], err = in.reconfigureMs(); err != nil {
		return nil, nil, err
	}
	m["subnet.share"] = (ms(conf) + float64(reconfigs)*m["subnet.reconfigure_ms"]) / ms(traced)
	if m["check.ns_per_hop"], err = in.checkNsPerHop(ref); err != nil {
		return nil, nil, err
	}
	put, get, read, err := in.storeMs(results)
	if err != nil {
		return nil, nil, err
	}
	m["campaign.store_put_ms"] = put
	m["campaign.store_get_ms"] = get
	m["campaign.resume_ms"] = read
	if in.camp != nil {
		m["campaign.resume_ms"] = ms(resume)
	}
	m["campaign.job_ms"] = ms(pub.wall) * float64(min(in.parallel, len(in.jobs))) / n
	m["campaign.sim_ms_per_job"] = ms(total) / n
	m["campaign.overhead_ms_per_job"] = m["campaign.job_ms"] - m["campaign.sim_ms_per_job"]
	return m, tr, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// lookupNs replays AdaptiveTable.Lookup over every switch table of the
// first job's configured network, for every DLID its traffic can carry
// (each host's deterministic and adaptive address).
func (in *instance) lookupNs() (float64, error) {
	net, err := newConfigured(in.jobs[0].spec, nil, 0, &runStats{})
	if err != nil {
		return 0, err
	}
	var dlids []ib.LID
	for h := 0; h < net.Topo.NumHosts(); h++ {
		dlids = append(dlids, net.Plan.DLIDFor(h, false), net.Plan.DLIDFor(h, true))
	}
	const minLookups = 1 << 20
	count, sink := 0, 0
	t0 := time.Now()
	for count < minLookups {
		for _, sw := range net.Switches {
			tab := sw.Table()
			for _, d := range dlids {
				esc, opts, err := tab.Lookup(d)
				if err != nil {
					return 0, err
				}
				sink += int(esc) + len(opts)
			}
			count += len(dlids)
		}
	}
	el := time.Since(t0)
	if sink == 0 {
		return 0, fmt.Errorf("lookup replay found no routes")
	}
	return float64(el.Nanoseconds()) / float64(count), nil
}

// verifyMs times the routing family's deadlock-freedom check on the
// workload's topology.
func (in *instance) verifyMs() (float64, error) {
	build := in.jobs[0].spec.Routing
	if build == nil {
		build = routing.UpDownBuilder(-1)
	}
	eng, err := build(in.jobs[0].spec.Topo)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = eng.Verify()
	return ms(time.Since(t0)), err
}

// maxReplays caps how many of a fault campaign's failure sets the
// reconfiguration replay routes around.
const maxReplays = 8

// reconfigureMs times subnet.Reconfigure on the first job's network:
// with a fault campaign, once for each set of links the campaign holds
// down at the same time (up to maxReplays of them, evenly picked);
// without one, three times with no failed links.
func (in *instance) reconfigureMs() (float64, error) {
	spec := in.jobs[0].spec
	sets := [][]topology.Link{nil, nil, nil}
	if spec.Faults != nil {
		var err error
		if sets, err = failureSets(spec); err != nil {
			return 0, err
		}
		if len(sets) == 0 {
			return 0, fmt.Errorf("fault campaign never held a link down")
		}
		if len(sets) > maxReplays {
			picked := make([][]topology.Link, maxReplays)
			for i := range picked {
				picked[i] = sets[i*len(sets)/maxReplays]
			}
			sets = picked
		}
	}
	net, err := newConfigured(spec, nil, 0, &runStats{})
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, set := range sets {
		for _, l := range net.DownLinks() {
			if err := net.SetLinkUp(l.A, l.B); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		_, err := subnet.Reconfigure(net, routingOptions(spec), set...)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return ms(total) / float64(len(sets)), nil
}

// failureSets replays a job's fault campaign on an idle copy of its
// network — no traffic, so the probe events it adds change nothing
// that is measured — and returns each distinct set of links held down
// at once, in order.
func failureSets(spec experiments.RunSpec) ([][]topology.Link, error) {
	net, err := newConfigured(spec, nil, 0, &runStats{})
	if err != nil {
		return nil, err
	}
	if _, err := faults.Apply(net, spec.Faults, spec.FaultSeed, routingOptions(spec)); err != nil {
		return nil, err
	}
	const every = 500 // ns; shorter than any flap the workloads schedule
	horizon := spec.Warmup + spec.Measure + spec.DrainGrace
	var sets [][]topology.Link
	last := ""
	var probe func()
	probe = func() {
		down := net.DownLinks()
		if key := fmt.Sprint(down); len(down) > 0 && key != last {
			sets = append(sets, down)
			last = key
		} else if len(down) == 0 {
			last = ""
		}
		if net.Engine.Now()+every <= horizon {
			net.Engine.Schedule(every, probe)
		}
	}
	net.Engine.Schedule(0, probe)
	if err := runNetwork(net, horizon); err != nil {
		return nil, err
	}
	return sets, nil
}

// checkNsPerHop is the auditor's cost per hop: the job with the most
// hops runs alone with and without check.Attach, in pairs (at least
// one, for at least abBudget), and the difference of the median
// Network.Run times is divided by its hops.
func (in *instance) checkNsPerHop(ref *reference) (float64, error) {
	const abBudget = time.Second
	best := 0
	for i, res := range ref.results {
		if res.Audit.HopChecks > ref.results[best].Audit.HopChecks {
			best = i
		}
	}
	spec := in.jobs[best].spec
	var with, without []float64
	start := time.Now()
	for len(with) == 0 || time.Since(start) < abBudget {
		for _, audit := range []bool{true, false} {
			runtime.GC()
			_, st, err := reconstruct(spec, newTracer(), 0, audit)
			if err != nil {
				return 0, err
			}
			if audit {
				with = append(with, float64(st.run.Nanoseconds()))
			} else {
				without = append(without, float64(st.run.Nanoseconds()))
			}
		}
	}
	_, a, _ := quartiles(with)
	_, b, _ := quartiles(without)
	return (a - b) / float64(ref.results[best].Audit.HopChecks), nil
}

// storeMs puts every reconstructed result into a fresh store as a
// campaign artifact and reads each back, returning the mean Put and
// Get time and the time to read and decode them all. The campaign
// workload uses its jobs' content addresses; in-process workloads
// address results by workload, seed and index.
func (in *instance) storeMs(results []experiments.RunResult) (put, get, read float64, err error) {
	dir, err := os.MkdirTemp(in.scratch, "store-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	store, err := campaign.Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	addrs := make([]string, len(results))
	bodies := make([][]byte, len(results))
	for i, res := range results {
		if in.camp != nil {
			addrs[i] = in.camp.plan.Jobs[i].Hash
		} else {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d", in.name, in.seed, i)))
			addrs[i] = hex.EncodeToString(sum[:])
		}
		if bodies[i], err = campaign.EncodeArtifact(addrs[i], res); err != nil {
			return 0, 0, 0, err
		}
	}
	t0 := time.Now()
	for i := range results {
		if err := store.Put(addrs[i], bodies[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	t1 := time.Now()
	for i := range results {
		if _, err := store.Get(addrs[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	t2 := time.Now()
	for i := range results {
		body, err := store.Get(addrs[i])
		if err == nil {
			_, err = campaign.DecodeArtifact(body, addrs[i])
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	t3 := time.Now()
	n := float64(len(results))
	return ms(t1.Sub(t0)) / n, ms(t2.Sub(t1)) / n, ms(t3.Sub(t2)), nil
}
