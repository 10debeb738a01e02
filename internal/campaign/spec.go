package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"ibasim/internal/experiments"
)

// SpecSchemaVersion is the campaign spec format version (independent of
// the job canonical-input schema, which governs the store).
const SpecSchemaVersion = 1

// Spec is the JSON description of a campaign: a cross-product sweep
// over sizes × packet sizes × patterns × adaptive fractions × loads,
// each cell replicated across Seeds random topologies. Expand turns it
// into the job DAG.
type Spec struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`

	// Topology family.
	Sizes          []int `json:"sizes"`
	HostsPerSwitch int   `json:"hostsPerSwitch,omitempty"` // 0 = 4
	Links          int   `json:"links"`

	// Routing.
	MR int `json:"mr"`
	// Deterministic runs the stock deterministic subnet instead of the
	// paper's enhanced adaptive switches.
	Deterministic bool `json:"deterministic,omitempty"`

	// Workload axes.
	PacketSizes       []int     `json:"packetSizes"`
	Patterns          []string  `json:"patterns,omitempty"`          // ParsePattern grammar; default ["uniform"]
	AdaptiveFractions []float64 `json:"adaptiveFractions,omitempty"` // default [1]

	// Replication: Seeds topologies starting at FirstSeed; the topology
	// seed doubles as the run seed, mirroring the harnesses.
	Seeds     int    `json:"seeds"`
	FirstSeed uint64 `json:"firstSeed,omitempty"` // 0 = 1

	// Load grid (bytes/ns/host), geometric from Lo to Hi.
	LoadLo     float64 `json:"loadLo"`
	LoadHi     float64 `json:"loadHi"`
	LoadPoints int     `json:"loadPoints"`

	// Measurement window (ns); zero values take the quick-scale defaults.
	WarmupNs     int64 `json:"warmupNs,omitempty"`
	MeasureNs    int64 `json:"measureNs,omitempty"`
	DrainGraceNs int64 `json:"drainGraceNs,omitempty"`

	// Faults is a compact fault-campaign spec applied to every run.
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"faultSeed,omitempty"`

	// Exec hints apply to every job; excluded from content hashes.
	Exec experiments.ExecSpec `json:"exec,omitempty"`
}

// ParseSpec strictly decodes a campaign spec: unknown fields and
// trailing garbage are rejected, then defaults are filled and the spec
// validated.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: bad spec JSON: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: trailing data after spec JSON")
	}
	s.fillDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) fillDefaults() {
	if s.Schema == 0 {
		s.Schema = SpecSchemaVersion
	}
	if len(s.Patterns) == 0 {
		s.Patterns = []string{"uniform"}
	}
	if len(s.AdaptiveFractions) == 0 {
		s.AdaptiveFractions = []float64{1}
	}
	if s.Seeds == 0 {
		s.Seeds = 1
	}
	if s.FirstSeed == 0 {
		s.FirstSeed = 1
	}
	if s.LoadPoints == 0 {
		s.LoadPoints = 1
	}
	q := experiments.QuickScale()
	if s.WarmupNs == 0 {
		s.WarmupNs = int64(q.Warmup)
	}
	if s.MeasureNs == 0 {
		s.MeasureNs = int64(q.Measure)
	}
	if s.DrainGraceNs == 0 {
		s.DrainGraceNs = int64(q.DrainGrace)
	}
}

func (s *Spec) validate() error {
	if s.Schema != SpecSchemaVersion {
		return fmt.Errorf("campaign: spec schema %d, this build speaks %d", s.Schema, SpecSchemaVersion)
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("campaign: spec has no sizes")
	}
	if len(s.PacketSizes) == 0 {
		return fmt.Errorf("campaign: spec has no packetSizes")
	}
	if s.Links <= 0 {
		return fmt.Errorf("campaign: links %d must be positive", s.Links)
	}
	if s.MR < 1 {
		return fmt.Errorf("campaign: mr %d must be >= 1", s.MR)
	}
	if s.Seeds < 1 {
		return fmt.Errorf("campaign: seeds %d must be >= 1", s.Seeds)
	}
	if math.IsNaN(s.LoadLo) || math.IsInf(s.LoadLo, 0) || s.LoadLo <= 0 {
		return fmt.Errorf("campaign: loadLo %v must be positive and finite", s.LoadLo)
	}
	if s.LoadPoints > 1 && (math.IsNaN(s.LoadHi) || math.IsInf(s.LoadHi, 0) || s.LoadHi < s.LoadLo) {
		return fmt.Errorf("campaign: loadHi %v must be finite and >= loadLo %v", s.LoadHi, s.LoadLo)
	}
	for _, p := range s.Patterns {
		if _, err := experiments.ParsePattern(p); err != nil {
			return fmt.Errorf("campaign: %v", err)
		}
	}
	return nil
}

// Job is one node of the plan: a run job plus its content address.
type Job struct {
	Spec experiments.JobSpec
	Hash string
}

// Group is one aggregate node of the DAG: a parameter cell whose stats
// are computed min/avg/max over seeds once its run jobs complete.
// JobIdx[i] (a Plan.Jobs index) carries seed Seeds[i]; indexes repeat
// when seed replicas dedup to one content address.
type Group struct {
	Size             int
	PacketSize       int
	Pattern          experiments.PatternSpec
	AdaptiveFraction float64
	Load             float64
	JobIdx           []int
	Seeds            []uint64
}

// Plan is the expanded campaign: the deduplicated job list (DAG
// leaves) and the aggregate groups that depend on them. Expansion
// order is deterministic — sizes, packet sizes, patterns, fractions,
// loads, seeds, exactly as the spec lists them — so two coordinators
// expanding the same spec agree on job indexes and table row order.
type Plan struct {
	Spec   *Spec
	Jobs   []Job
	Groups []Group
}

// Expand builds the plan: every parameter cell becomes a Group, every
// (cell, seed) a JobSpec hashed to its content address; jobs that
// collapse to the same address are planned once (dedup for free).
// Every job is validated here, before any worker spawns.
func (s *Spec) Expand() (*Plan, error) {
	loads := experiments.DefaultLoads(s.LoadLo, s.LoadHi, s.LoadPoints)
	plan := &Plan{Spec: s}
	byHash := make(map[string]int)
	for _, size := range s.Sizes {
		for _, pkt := range s.PacketSizes {
			for _, pname := range s.Patterns {
				pat, err := experiments.ParsePattern(pname)
				if err != nil {
					return nil, fmt.Errorf("campaign: %v", err)
				}
				for _, frac := range s.AdaptiveFractions {
					for _, load := range loads {
						g := Group{
							Size: size, PacketSize: pkt, Pattern: pat,
							AdaptiveFraction: frac, Load: load,
						}
						for i := 0; i < s.Seeds; i++ {
							seed := s.FirstSeed + uint64(i)
							js := experiments.JobSpec{
								Switches:         size,
								HostsPerSwitch:   s.HostsPerSwitch,
								Links:            s.Links,
								TopoSeed:         seed,
								MR:               s.MR,
								Enhanced:         !s.Deterministic,
								Pattern:          pat,
								PacketSize:       pkt,
								AdaptiveFraction: frac,
								Load:             load,
								Seed:             seed,
								WarmupNs:         s.WarmupNs,
								MeasureNs:        s.MeasureNs,
								DrainGraceNs:     s.DrainGraceNs,
								Faults:           s.Faults,
								FaultSeed:        s.FaultSeed,
								Exec:             s.Exec,
							}
							js.Normalize()
							if err := js.Validate(); err != nil {
								return nil, fmt.Errorf("campaign: job (size %d seed %d): %w", size, seed, err)
							}
							h := js.Hash()
							idx, ok := byHash[h]
							if !ok {
								idx = len(plan.Jobs)
								byHash[h] = idx
								plan.Jobs = append(plan.Jobs, Job{Spec: js, Hash: h})
							}
							g.JobIdx = append(g.JobIdx, idx)
							g.Seeds = append(g.Seeds, seed)
						}
						plan.Groups = append(plan.Groups, g)
					}
				}
			}
		}
	}
	if len(plan.Jobs) == 0 {
		return nil, fmt.Errorf("campaign: spec expands to no jobs")
	}
	return plan, nil
}
