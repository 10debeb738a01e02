// Command perfbench is ibasim's benchmark. It drives one workload per
// invocation through the simulator's public packages, checks every
// simulated statistic against a step-by-step reference, and prints
// host-time metrics: the end-to-end set by default, the per-layer set
// from a traced run with --trace 1. README.md explains the workloads,
// the metrics and which layer each metric belongs to.
//
//	bash perfbench/run.sh --workload fig3-irregular32 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it carry
// the host block, the workload digest and each metric's samples.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ibasim/internal/campaign"
)

// commit is stamped by run.sh; a binary built without it says so.
var commit = "unknown"

func main() {
	// The campaign coordinator re-executes this binary as its worker.
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(campaign.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "1 runs the traced reconstruction and reports per-layer metrics")
	spans := fs.String("spans", "", "file for the traced run's spans (default .bench_build/spans-<workload>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scratch:  filepath.Join(".bench_build", "scratch"),
		spans:    *spans,
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".json")
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every simulated window for the smoke test; its
	// digests are not the pinned ones.
	tiny bool
	// scratch is where campaign stores are created; each is removed
	// once its iteration is done.
	scratch string
	// spans is the file the traced run writes its spans to ("" = none).
	spans string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spread summarizes the samples behind a reported metric.
type spread struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// host records what the numbers were measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"campaign_workers"`
}

// result is everything one invocation reports.
type result struct {
	Host      host
	Digest    string
	Pinned    string // "" when the seed has no pinned digest
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Spreads   map[string]spread
}

func printResult(r *result) error {
	lines := []any{
		map[string]any{"host": r.Host},
		map[string]any{"digest": r.Digest, "pinned": r.Pinned},
		map[string]any{"spread": r.Spreads},
		map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics},
	}
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

func hostInfo(cfg config) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Workers:    campaignWorkers(),
	}
}

// cpuModel reads the first model name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procs is the GOMAXPROCS of the in-process workloads: all cores but
// one, which is left to the operating system and to whatever else
// shares the host, so that their noise lands less often on the
// measured threads.
func procs() int { return max(1, runtime.NumCPU()-1) }

// campaignWorkers is the campaign's worker-process count: ibcamp's
// default of 2, capped at the core count. Each worker is a process of
// its own, and the coordinator mostly waits on them.
func campaignWorkers() int { return min(2, runtime.NumCPU()) }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one invocation: set-up timing, the untraced reference,
// then either the measured loop or the traced rounds.
func run(cfg config) (*result, error) {
	build, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	runtime.GOMAXPROCS(procs())
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	inst, err := build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: building inputs: %w", cfg.workload, err)
	}
	r := &result{Host: hostInfo(cfg), Metrics: map[string]metric{}, Spreads: map[string]spread{}}
	if !cfg.tiny {
		r.Pinned = pinned[pinKey{cfg.workload, cfg.seed}]
	}

	ref, err := inst.reference()
	r.Attempted += len(inst.jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", cfg.workload, err)
	}
	r.Digest = ref.digest
	r.Correct = r.Pinned == "" || r.Pinned == ref.digest
	if !r.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: digest %s, pinned %s\n", cfg.workload, cfg.seed, ref.digest, r.Pinned)
	}

	if cfg.trace {
		err = traceRounds(cfg, inst, ref, r)
	} else {
		err = measure(cfg, inst, ref, r)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = r.Correct && r.Failed == 0
	return r, nil
}

// errMismatch marks an iteration whose output differs from the reference.
var errMismatch = errors.New("output differs from the reference")
