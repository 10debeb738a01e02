package ibasim

import (
	"fmt"

	"ibasim/internal/experiments"
)

// FeatureSet names the cross-cutting run features whose combinations
// are constrained: packet tracing, campaign execution, the arbiter,
// the topology family and the multipath baseline. The CLIs and the
// library API all funnel flag combinations through Validate before
// building anything, so an unsupported pairing fails up front with
// one canonical message instead of surfacing mid-run from whichever
// layer happens to notice first.
type FeatureSet struct {
	PacketTrace bool   // -packet-trace: per-packet lifecycle recorder
	Check       bool   // -check: heavy invariant scans (compatible with everything)
	Campaign    bool   // run executes inside an ibcamp campaign worker
	Arb         string // -arb: "", "wake" or "scan" crossbar arbiter
	Topo        string // -topo: "", "irregular", "fattree:K,N" or "torus:AxB[xC]"

	// SourceMultipath mirrors Config.SourceMultipath: >1 selects the
	// source-selected multipath baseline, which programs alternative
	// up*/down* tie-break variants and therefore only exists on the
	// irregular family.
	SourceMultipath int
}

// featureRule is one row of the compatibility table: a combination
// predicate and the error it earns. Rows are checked in order; the
// first match wins, so put the most fundamental conflicts first.
type featureRule struct {
	name    string
	applies func(FeatureSet) bool
	err     func(FeatureSet) error
}

// featureRules is the complete compatibility table. Check appears in
// no row by design: the auditor only reads state, so it composes with
// every other feature — the featureset test pins that absence.
var featureRules = []featureRule{
	{
		// A campaign worker's stdout carries the coordinator protocol
		// (heartbeats, the result frame); the tracer would corrupt it.
		name:    "trace-unsupported-in-campaign",
		applies: func(f FeatureSet) bool { return f.PacketTrace && f.Campaign },
		err: func(f FeatureSet) error {
			return fmt.Errorf("ibasim: packet tracing is unsupported inside campaign workers")
		},
	},
	{
		// The arbiter is a knob with exactly two bit-identical
		// settings; it composes with everything (tracing included —
		// the wake arbiter preserves exact event sequences), so its
		// only row is the name check. Tamper models force the scan
		// arbiter at runtime (fabric.SetTamper), not here: tampering
		// is a test-only seam with no CLI surface.
		name: "arb-known",
		applies: func(f FeatureSet) bool {
			switch f.Arb {
			case "", "wake", "scan":
				return false
			}
			return true
		},
		err: func(f FeatureSet) error {
			return fmt.Errorf("ibasim: unknown arbiter %q (want wake or scan)", f.Arb)
		},
	},
	{
		// The -topo grammar is the single source of truth for family
		// selection; a typo'd family must fail here, not deep inside a
		// generator with a shape error.
		name: "topo-known",
		applies: func(f FeatureSet) bool {
			_, err := experiments.ParseFamily(f.Topo)
			return err != nil
		},
		err: func(f FeatureSet) error {
			_, err := experiments.ParseFamily(f.Topo)
			return err
		},
	},
	{
		// Source multipath programs k up*/down* tie-break variants of
		// one link orientation; the structured families' escape routings
		// have no such variant notion, so the baseline is irregular-only.
		name: "multipath-requires-irregular",
		applies: func(f FeatureSet) bool {
			if f.SourceMultipath <= 1 {
				return false
			}
			fam, err := experiments.ParseFamily(f.Topo)
			return err == nil && !fam.Irregular()
		},
		err: func(f FeatureSet) error {
			return fmt.Errorf("ibasim: source multipath requires the irregular family, not -topo %s", f.Topo)
		},
	},
}

// Validate applies the compatibility table and returns the first
// conflict, or nil when the combination is supported.
func (f FeatureSet) Validate() error {
	for _, r := range featureRules {
		if r.applies(f) {
			return r.err(f)
		}
	}
	return nil
}

// features assembles the Config's feature selection; packetTrace is
// supplied by the entry point (SimulateTraced) rather than the Config.
func (c Config) features(packetTrace bool) FeatureSet {
	return FeatureSet{
		PacketTrace: packetTrace, Check: c.Check, Arb: c.Arb,
		Topo: c.Topology, SourceMultipath: c.SourceMultipath,
	}
}
