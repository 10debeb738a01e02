package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func testJob() JobSpec {
	return JobSpec{
		Switches: 8, Links: 4, TopoSeed: 1,
		MR: 2, Enhanced: true,
		Pattern: PatternSpec{Kind: "uniform"}, PacketSize: 32,
		AdaptiveFraction: 1, Load: 0.01, Seed: 1,
		WarmupNs: 5_000, MeasureNs: 20_000, DrainGraceNs: 5_000,
	}
}

// TestJobHashIgnoresExec pins canonicalization rule 2: execution hints
// never move the content address, so a run executed with the heap
// scheduler dedups against the same run on the calendar queue.
func TestJobHashIgnoresExec(t *testing.T) {
	base := testJob()
	variants := []ExecSpec{
		{},
		{Sched: "heap"},
		{Arb: "scan"},
		{Check: true, Unfused: true},
	}
	want := base.Hash()
	for _, ex := range variants {
		j := base
		j.Exec = ex
		if got := j.Hash(); got != want {
			t.Fatalf("Exec %+v moved the hash: %s != %s", ex, got, want)
		}
	}
}

// TestJobHashPinned pins rule 3 and the content address itself: the
// hash of one fully specified job is a constant across versions, so
// every artifact already in a campaign store stays addressable. It
// fails if the preimage loses its constant "lagNs":0 field or changes
// in any other way.
func TestJobHashPinned(t *testing.T) {
	j := JobSpec{
		Schema: 1, Switches: 16, HostsPerSwitch: 4, Links: 4, TopoSeed: 3,
		MR: 4, Enhanced: true,
		Pattern: PatternSpec{Kind: "hot-spot", Fraction: 0.25}, PacketSize: 256,
		AdaptiveFraction: 0.5, Load: 0.02, Seed: 7,
		WarmupNs: 10_000, MeasureNs: 50_000, DrainGraceNs: 20_000,
		Faults: "rand:1:1000@2000-3000", FaultSeed: 9,
	}
	const want = "43dd94d1a374dbc4bd2e21629d5f5e88106e0d6ee0a0016cb3ed3bc515d46068"
	if got := j.Hash(); got != want {
		t.Fatalf("content address moved: %s, want %s\npreimage %s", got, want, j.CanonicalInput())
	}
}

// TestJobHashNormalizationEquivalence pins rule 1: a tersely written
// spec and its fully explicit form share one content address.
func TestJobHashNormalizationEquivalence(t *testing.T) {
	terse := testJob()
	terse.Schema = 0
	terse.HostsPerSwitch = 0
	terse.Pattern.Kind = ""

	explicit := testJob()
	explicit.Schema = JobSchemaVersion
	explicit.HostsPerSwitch = 4
	explicit.Pattern.Kind = "uniform"

	if terse.Hash() != explicit.Hash() {
		t.Fatalf("normalized forms hash apart: %s != %s", terse.Hash(), explicit.Hash())
	}
}

// TestJobHashCoversResultInputs: every result-determining field must
// move the hash.
func TestJobHashCoversResultInputs(t *testing.T) {
	base := testJob()
	mutations := map[string]func(*JobSpec){
		"switches":   func(j *JobSpec) { j.Switches = 16 },
		"links":      func(j *JobSpec) { j.Links = 6 },
		"topoSeed":   func(j *JobSpec) { j.TopoSeed = 2 },
		"mr":         func(j *JobSpec) { j.MR = 4 },
		"enhanced":   func(j *JobSpec) { j.Enhanced = false },
		"pattern":    func(j *JobSpec) { j.Pattern = PatternSpec{Kind: "bit-reversal"} },
		"packetSize": func(j *JobSpec) { j.PacketSize = 256 },
		"fraction":   func(j *JobSpec) { j.AdaptiveFraction = 0.5 },
		"load":       func(j *JobSpec) { j.Load = 0.02 },
		"seed":       func(j *JobSpec) { j.Seed = 7 },
		"measure":    func(j *JobSpec) { j.MeasureNs = 30_000 },
		"faults":     func(j *JobSpec) { j.Faults = "rand:1:1000@2000-3000" },
		"faultSeed":  func(j *JobSpec) { j.FaultSeed = 9 },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mut := range mutations {
		j := base
		mut(&j)
		h := j.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("mutation %q collides with %q: hash %s", name, prev, h)
		}
		seen[h] = name
	}
}

func TestJobValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"schema-mismatch", func(j *JobSpec) { j.Schema = 99 }, "job schema 99"},
		{"zero-switches", func(j *JobSpec) { j.Switches = 0 }, "must be positive"},
		{"bad-mr", func(j *JobSpec) { j.MR = 0 }, "must be >= 1"},
		{"bad-pattern", func(j *JobSpec) { j.Pattern.Kind = "zipf" }, `pattern "zipf" unknown`},
		{"hot-spot-no-fraction", func(j *JobSpec) { j.Pattern = PatternSpec{Kind: "hot-spot"} }, "hot-spot fraction"},
		{"nan-load", func(j *JobSpec) { j.Load = nan() }, "load"},
		{"bad-faults", func(j *JobSpec) { j.Faults = "florp:1" }, "fault spec"},
		{"zero-measure", func(j *JobSpec) { j.MeasureNs = 0 }, "measurement window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := testJob()
			tc.mut(&j)
			err := j.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
	j := testJob()
	if err := j.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

// TestJobExecuteDeterministic: the same spec executed twice serializes
// to identical bytes — the property that makes content addressing
// byte-exact across resumes.
func TestJobExecuteDeterministic(t *testing.T) {
	j := testJob()
	r1, err := j.Execute()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("Execute is not reproducible:\n%s\n%s", b1, b2)
	}
	if r1.PacketsMeasured == 0 {
		t.Fatal("job measured no packets; spec too small to mean anything")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
