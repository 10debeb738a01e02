package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ibasim/internal/campaign"
)

// TestMain lets the campaign coordinator re-execute the test binary as
// its worker, as it re-executes the benchmark binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(campaign.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric lists the benchmark promises.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestSmoke runs every workload over a tiny window, untraced and
// traced, twice on a seed that has no pinned digest. Every declared
// metric must come out with its unit, no operation may fail, both runs
// must agree on the digest, and no campaign store may outlive its run.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	const heldOut = 7
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				want := endToEnd
				if traced {
					want = perLayer
				}
				var digests []string
				for i := 0; i < 2; i++ {
					scratch := t.TempDir()
					cfg := config{
						workload: name, seed: heldOut, seconds: 0, trace: traced, tiny: true,
						scratch: scratch, spans: filepath.Join(t.TempDir(), "spans.json"),
					}
					r, err := run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
						t.Fatalf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
					}
					if len(r.Metrics) != len(want) {
						t.Errorf("%d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
					}
					for _, d := range want {
						got, ok := r.Metrics[d.Name]
						if !ok || got.Unit != d.Unit {
							t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
						}
					}
					left, err := os.ReadDir(scratch)
					if err != nil {
						t.Fatal(err)
					}
					if len(left) != 0 {
						t.Errorf("scratch directory keeps %d entries after the run", len(left))
					}
					if traced {
						if _, err := os.Stat(cfg.spans); err != nil {
							t.Errorf("traced run wrote no spans: %v", err)
						}
					}
					digests = append(digests, r.Digest)
				}
				if digests[0] != digests[1] {
					t.Errorf("seed %d gave digests %s and %s", heldOut, digests[0], digests[1])
				}
			})
		}
	}
}

// TestPinnedDigests checks every workload's full-size reference run at
// the default seed against its pinned digest.
func TestPinnedDigests(t *testing.T) {
	for _, name := range workloadNames() {
		in, err := workloads[name](config{workload: name, seed: defaultSeed, scratch: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := in.reference()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := pinned[pinKey{name, defaultSeed}]; ref.digest != want {
			t.Errorf("%s: digest %s, pinned %s", name, ref.digest, want)
		}
	}
}
