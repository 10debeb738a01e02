package main

import (
	"runtime"
	"sync"
	"time"

	"ibasim/internal/check"
	"ibasim/internal/experiments"
	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/ib"
	"ibasim/internal/metrics"
	"ibasim/internal/reorder"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/traffic"
)

// runStats is what the reconstruction reads off one run besides its
// result. The durations are zero when the run is not traced.
type runStats struct {
	hops, events, parks uint64
	linkUtil            float64

	total, newNetwork, configure, run, finalize time.Duration
}

// routingOptions are the subnet-manager options experiments.RunObserved
// derives from a spec.
func routingOptions(spec experiments.RunSpec) subnet.Options {
	return subnet.Options{
		MaxRoutingOptions: spec.MR,
		Root:              -1,
		SourceMultipath:   spec.SourceMultipath,
		Engine:            spec.Routing,
	}
}

// newConfigured is steps 1-3 of experiments.RunObserved: the address
// plan, the network and the subnet manager's tables. st receives the
// traced durations of the last two.
func newConfigured(spec experiments.RunSpec, tr *tracer, parent int, st *runStats) (*fabric.Network, error) {
	sp := tr.begin("ib.address_plan", parent)
	plan, err := ib.NewAddressPlan(spec.Topo.NumHosts(), spec.LMC)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	fcfg := spec.Fabric
	if spec.Faults != nil && !fcfg.Retry.Enabled() {
		fcfg.Retry = fabric.DefaultRetry()
	}
	sp = tr.begin("fabric.new_network", parent)
	net, err := fabric.NewNetwork(spec.Topo, plan, fcfg, spec.Seed)
	st.newNetwork = tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("subnet.configure", parent)
	_, err = subnet.Configure(net, routingOptions(spec))
	st.configure = tr.end(sp)
	if err != nil {
		return nil, err
	}
	return net, nil
}

// reconstruct runs one simulation the way experiments.RunObserved does,
// one public call at a time, so each layer's share can be traced. The
// result must equal RunObserved's bit for bit; the digest checks it.
// audit=false leaves out check.Attach, the A/B side of the auditor's
// cost; such a result carries no audit counters.
func reconstruct(spec experiments.RunSpec, tr *tracer, parent int, audit bool) (res experiments.RunResult, st runStats, err error) {
	runSpan := tr.begin("experiments.run", parent)
	defer func() { st.total = tr.end(runSpan) }()

	sp := tr.begin("setup", runSpan)
	net, err := newConfigured(spec, tr, sp, &st)
	tr.end(sp)
	if err != nil {
		return res, st, err
	}

	sp = tr.begin("metrics.attach", runSpan)
	col := &metrics.Collector{
		WarmupEnd:  spec.Warmup,
		MeasureEnd: spec.Warmup + spec.Measure,
		Reorder:    reorder.NewBufferForHosts(spec.Topo.NumHosts()),
	}
	col.Attach(net)
	tr.end(sp)

	var aud *check.Auditor
	if audit {
		sp = tr.begin("check.attach", runSpan)
		aud = check.Attach(net, check.Config{Heavy: spec.Check})
		tr.end(sp)
	}

	var inj *faults.Injector
	var dog *faults.Watchdog
	if spec.Faults != nil {
		sp = tr.begin("faults.apply", runSpan)
		inj, err = faults.Apply(net, spec.Faults, spec.FaultSeed, routingOptions(spec))
		if err == nil {
			dog = faults.NewWatchdog(net, spec.Faults.Watchdog)
			dog.Start()
		}
		tr.end(sp)
		if err != nil {
			return res, st, err
		}
	}

	sp = tr.begin("traffic.start", runSpan)
	gen, err := traffic.NewGenerator(net, spec.Traffic)
	if err == nil {
		gen.Start(spec.Warmup + spec.Measure)
	}
	tr.end(sp)
	if err != nil {
		return res, st, err
	}

	sp = tr.begin("fabric.run", runSpan)
	err = runNetwork(net, spec.Warmup+spec.Measure+spec.DrainGrace)
	st.run = tr.end(sp)
	if err != nil {
		return res, st, err
	}
	st.events = net.Engine.Processed()
	st.parks = net.ArbParks()
	st.linkUtil = net.Utilization().Mean

	fin := tr.begin("finalize", runSpan)
	sp = tr.begin("metrics.finalize", fin)
	col.Finalize()
	st.finalize = tr.end(sp)
	res = experiments.RunResult{
		OfferedPerSwitch:   spec.Traffic.OfferedPerSwitchAvg(float64(spec.Topo.NumHosts()) / float64(spec.Topo.NumSwitches)),
		AcceptedPerSwitch:  col.AcceptedPerSwitch(),
		AvgLatencyNs:       col.Latency.Avg(),
		P99LatencyNs:       float64(col.Hist.Quantile(0.99)),
		PacketsMeasured:    col.Latency.Count,
		OutOfOrderFraction: col.OutOfOrderFraction(),
		ReorderPeakHeld:    col.Reorder.PeakHeld,
		ReorderAvgDelayNs:  col.Reorder.AvgReorderDelay(),
	}
	fcfg := net.Cfg
	if fcfg.Retry.Enabled() {
		fs := net.FaultTotals()
		res.Retry = experiments.RetryStats{
			Retries:        fs.Retries,
			Lost:           fs.Lost,
			DroppedTimeout: fs.DroppedTimeout,
			MaxAttempts:    fs.MaxAttempts,
			BackoffCapNs:   int64(fcfg.Retry.EffectiveBackoffCap()),
		}
	}
	if inj != nil {
		sp = tr.begin("faults.finalize", fin)
		dog.Stop()
		inj.Finalize()
		tr.end(sp)
		fs := net.FaultTotals()
		res.Degraded = experiments.DegradedStats{
			FaultsInjected:    inj.FaultsInjected,
			Repairs:           inj.Repairs,
			Reconfigs:         inj.ReconfigsDone,
			DroppedUnroutable: fs.DroppedUnroutable,
			DroppedOnDeadPort: fs.DroppedOnDeadPort,
			DroppedTimeout:    fs.DroppedTimeout,
			Retries:           fs.Retries,
			Lost:              fs.Lost,
			RerouteDrops:      inj.RerouteDrops,
			RecoveryLatencyNs: int64(inj.RecoveryLatency),
			WatchdogSamples:   dog.Samples(),
		}
		if vs := dog.Violations(); len(vs) > 0 {
			res.Degraded.WatchdogViolations = len(vs)
			res.Degraded.FirstViolation = vs[0].Error()
		}
		if err := inj.Err(); err != nil {
			tr.end(fin)
			return res, st, err
		}
	}
	res.ShardStats = net.ShardStats()
	if aud != nil {
		sp = tr.begin("check.finalize", fin)
		arep := aud.Finalize()
		tr.end(sp)
		res.Audit = experiments.AuditStats{
			HopChecks:  arep.HopChecks,
			HeavyTicks: arep.HeavyTicks,
			Violations: int(arep.ViolationCount),
		}
		st.hops = arep.HopChecks
		if err := arep.Err(); err != nil {
			res.Audit.First = err.Error()
			tr.end(fin)
			return res, st, err
		}
	}
	tr.end(fin)
	sp = tr.begin("fabric.recycle", runSpan)
	net.Recycle()
	tr.end(sp)
	return res, st, runFailed(res)
}

// runNetwork runs the engine to the horizon, turning a fatal watchdog
// violation into an error as experiments.RunObserved does.
func runNetwork(net *fabric.Network, horizon sim.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(faults.Violation)
			if !ok {
				panic(r)
			}
			err = v
		}
	}()
	net.Run(horizon)
	return nil
}

// runJobs runs every job of the instance through reconstruct, grouped
// as the public path groups them: the points of one sweep share a
// queue arena and run on a pool of in.parallel workers, and the sweeps
// of one panel share a packet arena.
func (in *instance) runJobs(tr *tracer, parent int) ([]experiments.RunResult, []runStats, error) {
	results := make([]experiments.RunResult, len(in.jobs))
	stats := make([]runStats, len(in.jobs))
	panels := map[int]*fabric.PacketArena{}
	for lo := 0; lo < len(in.jobs); {
		hi := lo + 1
		for hi < len(in.jobs) && in.jobs[hi].sweep == in.jobs[lo].sweep {
			hi++
		}
		specs := make([]experiments.RunSpec, hi-lo)
		var arena *sim.QueueArena
		var pkt *fabric.PacketArena
		if in.jobs[lo].sweep >= 0 {
			arena = sim.NewQueueArena()
			pkt = fabric.NewPacketArena()
			if p := in.jobs[lo].panel; p >= 0 {
				if panels[p] == nil {
					panels[p] = pkt
				}
				pkt = panels[p]
			}
		}
		for i := range specs {
			s := in.jobs[lo+i].spec
			if arena != nil {
				// The options experiments.LoadSweep adds to each point.
				s.Fabric.PacketArena = pkt
				s.Fabric.EngineOpts = append(append([]sim.EngineOption{}, s.Fabric.EngineOpts...),
					sim.WithCapacityHint(256*s.Topo.NumSwitches), sim.WithArena(arena))
			}
			specs[i] = s
		}
		// More goroutines than Ps would stretch every run's span by the
		// time it waits for the others.
		err := pool(len(specs), min(in.parallel, runtime.GOMAXPROCS(0)), func(i int) error {
			var err error
			results[lo+i], stats[lo+i], err = reconstruct(specs[i], tr, parent, true)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		lo = hi
	}
	return results, stats, nil
}

// pool runs n jobs on at most workers goroutines and returns the
// lowest-indexed error.
func pool(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(max(workers, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
