package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/topology"
)

// The two digests below pin the sha256 of a complete RunResult's JSON
// for the runs that spend most of their time in the source queues:
// the retry path (send timeouts on queued packets, drops re-entering
// the queue) and a saturated hot spot, where most generated packets
// never leave their source. No other golden covers the retry and
// timeout paths bit-exactly. Regenerate only for an intentional model
// change, never to make a refactor pass.

func runDigest(t *testing.T, spec RunSpec) (RunResult, string) {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return res, hex.EncodeToString(sum[:])
}

// TestRetryTimeoutRunPinned fails an inter-switch link for long enough,
// with no reconfiguration, that the packets parked on it back up into
// the source queues: queue heads outlive fabric.DefaultRetry's send
// timeout, are dropped there and re-enter their queue after backoff.
func TestRetryTimeoutRunPinned(t *testing.T) {
	topo := diffTopo(t)
	l := topo.Links[0]
	spec := diffSpec(topo)
	spec.Fabric.Retry = fabric.DefaultRetry()
	spec.Traffic.LoadBytesPerNsPerHost = 0.05
	spec.Measure = 400_000
	spec.DrainGrace = 600_000
	spec.Faults = &faults.Campaign{
		Events: []faults.Event{
			{At: 30_000, Kind: faults.LinkDown, A: l.A, B: l.B},
			{At: 330_000, Kind: faults.LinkUp, A: l.A, B: l.B},
		},
		Watchdog: faults.WatchdogConfig{SampleEvery: 5_000, Horizon: 1_000_000},
	}
	spec.FaultSeed = 5
	res, got := runDigest(t, spec)
	if res.Retry.Retries == 0 || res.Retry.DroppedTimeout == 0 {
		t.Fatalf("run did not exercise the queued-timeout retry path: %+v", res.Retry)
	}
	const want = "4c7d24e8ec1a4becc96f46010a79b1c5061ca7eef19e436f6f9a528633fd320c"
	if got != want {
		t.Fatalf("retry/timeout run digest moved: %s, want %s\n%+v", got, want, res)
	}
}

// TestSaturatedHotSpotRunPinned runs a 4x4 torus far past saturation
// under hot-spot traffic, so the source queues grow for the whole run.
func TestSaturatedHotSpotRunPinned(t *testing.T) {
	fam, err := ParseFamily("torus:4x4")
	if err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	topo, err := fam.Topology(topology.IrregularSpec{HostsPerSwitch: 4})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildPattern(PatternSpec{Kind: "hot-spot", Fraction: 0.3}, topo.NumHosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := sc.Spec(topo, 4, 32, 0.5, pat, 3, true)
	spec.Routing = fam.Routing()
	spec.Traffic.LoadBytesPerNsPerHost = 0.3
	spec.Warmup, spec.Measure, spec.DrainGrace = 20_000, 100_000, 20_000
	res, got := runDigest(t, spec)
	const want = "fb37898d4434c7d8a6184d4345200bd4c218bd6202b2c30d9f2df51b22a9af53"
	if got != want {
		t.Fatalf("saturated hot-spot run digest moved: %s, want %s\n%+v", got, want, res)
	}
}
