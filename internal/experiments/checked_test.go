package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"ibasim/internal/traffic"
)

// TestFigure3GoldenChecked pins the invariant auditor's heavy scans to
// the committed golden hash: -check re-verifies the model while the
// run executes but only ever reads state, so enabling it must not
// perturb a single event. A drift here means an audit mutated the
// simulation (or scheduled into its event order) — exactly the bug
// class this test exists to block.
func TestFigure3GoldenChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a QuickScale sweep")
	}
	sc := QuickScale()
	sc.Sizes = []int{8}
	sc.Topologies = 1
	sc.Check = true
	res, err := Figure3(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != figure3Golden {
		t.Fatalf("checked artifact hash %s, want golden %s (auditor perturbed the simulation)", got, figure3Golden)
	}
}

// TestAuditStatsPopulated asserts a checked run actually audited:
// nonzero hop checks and heavy scans, zero violations, and identical
// observables with the auditor's heavy scans on and off.
func TestAuditStatsPopulated(t *testing.T) {
	sc := QuickScale()
	topos, err := sc.topoSet(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := sc.Spec(topos[0], 2, 32, 1.0, traffic.Uniform{NumHosts: topos[0].NumHosts()}, 1, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.02

	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Check = true
	checked, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if plain.Audit.HopChecks == 0 || checked.Audit.HopChecks == 0 {
		t.Fatalf("hop checks not running: plain=%d checked=%d", plain.Audit.HopChecks, checked.Audit.HopChecks)
	}
	if plain.Audit.HeavyTicks != 0 {
		t.Fatalf("heavy scans ran without Check: %d", plain.Audit.HeavyTicks)
	}
	if checked.Audit.HeavyTicks == 0 {
		t.Fatal("Check set but no heavy scans ran")
	}
	if plain.Audit.Violations != 0 || checked.Audit.Violations != 0 {
		t.Fatalf("clean model reported violations: plain=%d checked=%d", plain.Audit.Violations, checked.Audit.Violations)
	}

	// The observables must be bit-identical; only the audit bookkeeping
	// may differ.
	plain.Audit, checked.Audit = AuditStats{}, AuditStats{}
	if !reflect.DeepEqual(plain, checked) {
		t.Fatalf("heavy audits changed results:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
}
