// Package check is the simulator's correctness-tooling layer: a
// runtime invariant auditor that re-verifies the paper's model rules
// while a simulation runs, and (in the test files) a conformance
// harness — metamorphic properties, property-based generators and a
// mutation smoke suite — that proves the auditor would notice if an
// optimization bent the model.
//
// The auditor hooks the same Network-level observer callbacks the
// metrics collector uses. Cheap per-event checks are always on;
// whole-fabric scans (credit audit, live-table escape-CDG acyclicity)
// run on a periodic engine tick only when Config.Heavy is set (the
// -check flag of ibsim/ibbench). Heavy ticks only read state, so
// enabling them never perturbs simulation results — the Figure 3
// golden hash holds with -check on.
package check

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Invariant names. Every Violation carries one of these; the mutation
// smoke suite asserts each deliberate model break trips the named
// invariant it targets.
const (
	// InvCreditBound: per (channel, VL), 0 <= credits and
	// credits + peer occupancy <= CMax. (§4.4 flow control: in-flight
	// packets and updates can only lower availability, never invent it.)
	InvCreditBound = fabric.AuditCreditBound
	// InvCreditSplit: the §4.4 identities C_XYA = max(0, C_XY − C_0),
	// C_XYE = min(C_0, C_XY), C_XYA + C_XYE = C_XY, and well-formedness
	// of the configured split (0 < C_0 < CMax = BufferCredits).
	InvCreditSplit = fabric.AuditCreditSplit
	// InvCreditOccupancy: a VL buffer's occupancy counter equals the
	// sum of its entries' credits.
	InvCreditOccupancy = fabric.AuditCreditOccupancy
	// InvCreditsIntact: with the network fully drained, every channel
	// sees its full credit count again (credits were neither lost nor
	// duplicated over the run).
	InvCreditsIntact = "credits-intact"
	// InvAdaptiveAdmission: an adaptive routing option is only taken
	// when the next hop's ADAPTIVE queue has room for the whole packet:
	// C_XYA = max(0, C_XY − C_0) >= packet credits (§4.4).
	InvAdaptiveAdmission = "adaptive-admission"
	// InvEscapeAdmission: any other hop (escape, or delivery into a CA)
	// requires total room for the whole packet: C_XY >= packet credits
	// (virtual cut-through, §4.4).
	InvEscapeAdmission = "escape-admission"
	// InvEscapeCDGAcyclic: the escape paths programmed in the LIVE
	// forwarding tables form an acyclic channel dependency graph —
	// Duato's deadlock-freedom condition (§3), re-checked against what
	// the switches actually execute rather than what the subnet manager
	// computed.
	InvEscapeCDGAcyclic = "escape-cdg-acyclic"
	// InvDeterministicOrder: packets of a flow sent with deterministic
	// service (DLID LSB 0, §4.2) are delivered in injection order.
	InvDeterministicOrder = "deterministic-order"
	// InvPacketConservation: once drained, every injected packet is
	// delivered, lost with a counted cause, or still queued — nothing
	// vanishes (injected = delivered + lost + in-flight).
	InvPacketConservation = "packet-conservation"
	// InvDeadlock: the event queue drained while packets were still
	// buffered — nothing can ever move them again.
	InvDeadlock = "deadlock"
)

// Config controls the auditor. The zero value enables exactly the
// cheap always-on checks.
type Config struct {
	// Heavy enables the periodic whole-fabric scans (credit audit,
	// live-table escape-CDG acyclicity) on a periodic engine tick.
	Heavy bool
	// Every is the heavy tick period (default 5_000 ns, matching the
	// fault watchdog's sampling cadence).
	Every sim.Time
	// MaxViolations caps recorded violations per context so a systemic
	// breach doesn't balloon memory (default 64); counting continues.
	MaxViolations int
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 5_000
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 64
	}
	return c
}

// Violation is one observed invariant breach.
type Violation struct {
	At        sim.Time
	Invariant string
	Detail    string
}

// Error implements error so runners can surface the first violation
// directly.
func (v Violation) Error() string {
	return fmt.Sprintf("check: %s at t=%d: %s", v.Invariant, v.At, v.Detail)
}

// Report is the auditor's folded end-of-run summary.
type Report struct {
	// Created and Delivered count packets over the whole run (not a
	// measurement window — conservation needs totals).
	Created   uint64
	Delivered uint64
	// HopChecks counts per-hop admission verifications performed.
	HopChecks uint64
	// HeavyTicks counts whole-fabric scan ticks (0 unless Config.Heavy).
	HeavyTicks uint64
	// Violations lists recorded breaches in the order found.
	// ViolationCount keeps counting past the MaxViolations cap.
	Violations     []Violation
	ViolationCount uint64
}

// Err returns the first violation as an error, or nil when clean.
func (r Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// Has reports whether any recorded violation carries the named
// invariant (mutation-suite assertion helper).
func (r Report) Has(invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// flowKey identifies one (source, destination) packet flow.
type flowKey struct{ src, dst int }

// Auditor re-verifies model invariants from the fabric's observer
// hooks. Build with Attach; read results with Finalize.
type Auditor struct {
	net    *fabric.Network
	cfg    Config
	ticker *sim.Ticker

	created    uint64
	delivered  uint64
	hopChecks  uint64
	violations []Violation
	count      uint64
	lastDetSeq map[flowKey]uint64

	final     Report
	finalized bool

	// orderExempt disables the in-order check when the configuration
	// legitimately reorders deterministic packets: source multipath
	// spreads one flow over several paths, and drop/retry re-injects
	// packets behind their successors.
	orderExempt bool
}

// Attach hooks an auditor onto net, chaining the Network-level
// callbacks after whatever collector/tracer is already there. With
// cfg.Heavy it also starts the whole-fabric scan ticker.
// Attach must come after other observers so their callbacks keep
// running even when an audit panics under test harnesses.
func Attach(net *fabric.Network, cfg Config) *Auditor {
	a := &Auditor{
		net:         net,
		cfg:         cfg.withDefaults(),
		orderExempt: net.Cfg.SourceMultipath > 1 || net.Cfg.Retry.Enabled(),
		lastDetSeq:  make(map[flowKey]uint64),
	}
	prevCreated, prevDelivered, prevHop := net.OnCreated, net.OnDelivered, net.OnHop
	net.OnCreated = func(p *ib.Packet) {
		if prevCreated != nil {
			prevCreated(p)
		}
		a.onCreated(p)
	}
	net.OnDelivered = func(p *ib.Packet) {
		if prevDelivered != nil {
			prevDelivered(p)
		}
		a.onDelivered(p)
	}
	net.OnHop = func(p *ib.Packet, sw int, out ib.PortID, adaptive bool) {
		if prevHop != nil {
			prevHop(p, sw, out, adaptive)
		}
		a.onHop(p, sw, out, adaptive)
	}
	if a.cfg.Heavy {
		a.ticker = sim.NewTicker(net.Engine, a.cfg.Every, a.heavyTick)
		a.ticker.Start()
	}
	return a
}

func (a *Auditor) report(v Violation) {
	a.count++
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, v)
	}
}

func (a *Auditor) onCreated(p *ib.Packet) { a.created++ }

// onDelivered counts the delivery and enforces InvDeterministicOrder:
// within a flow, the subsequence of deterministic-service deliveries
// must carry nondecreasing sequence numbers. Adaptive packets may
// legitimately overtake (§1 names that the price of adaptivity).
func (a *Auditor) onDelivered(p *ib.Packet) {
	a.delivered++
	if a.orderExempt || p.Adaptive {
		return
	}
	k := flowKey{src: p.Src, dst: p.Dst}
	last, seen := a.lastDetSeq[k]
	if seen && p.SeqNo < last {
		a.report(Violation{
			At:        p.DeliveredAt,
			Invariant: InvDeterministicOrder,
			Detail: fmt.Sprintf("flow %d->%d: deterministic packet seq %d delivered after seq %d",
				p.Src, p.Dst, p.SeqNo, last),
		})
		return
	}
	a.lastDetSeq[k] = p.SeqNo
}

// onHop re-checks the §4.4 admission rule for every forwarding
// decision. OnHop fires synchronously inside the switch's startTx with
// no intervening event, so AuditHopView's post-decrement credits plus
// the packet's own credits reconstruct exactly the availability the
// selector saw.
func (a *Auditor) onHop(p *ib.Packet, sw int, out ib.PortID, adaptive bool) {
	a.hopChecks++
	now, credits, hostFacing, ok := a.net.Switches[sw].AuditHopView(out, p.SL)
	if !ok {
		return
	}
	pre := credits + p.Credits()
	split := a.net.Cfg.Split
	if adaptive && !hostFacing {
		if !split.CanUseAdaptive(pre, p.Credits()) {
			a.report(Violation{
				At:        now,
				Invariant: InvAdaptiveAdmission,
				Detail: fmt.Sprintf("switch %d port %d: packet %d (%d credits) admitted adaptively with C_XY=%d, C_XYA=%d (C_0=%d)",
					sw, out, p.ID, p.Credits(), pre, split.Adaptive(pre), split.CEscape),
			})
		}
		return
	}
	if !split.CanUseEscape(pre, p.Credits()) {
		a.report(Violation{
			At:        now,
			Invariant: InvEscapeAdmission,
			Detail: fmt.Sprintf("switch %d port %d: packet %d (%d credits) sent with only %d credits available",
				sw, out, p.ID, p.Credits(), pre),
		})
	}
}

// heavyTick runs the whole-fabric scans. It follows the watchdog's
// self-stop protocol: once nothing else is pending, the auditor is the
// only thing left alive and stops rescheduling (reporting a deadlock
// if packets are still buffered).
func (a *Auditor) heavyTick(now sim.Time) (stop bool) {
	a.net.AuditCredits(func(class, detail string) {
		a.report(Violation{At: now, Invariant: class, Detail: detail})
	})
	a.checkEscapeCDG(now)
	if a.net.Engine.Pending() == 0 {
		if inFlight := a.net.InFlight(); inFlight > 0 {
			a.report(Violation{
				At:        now,
				Invariant: InvDeadlock,
				Detail:    fmt.Sprintf("event queue empty with %d packets in flight", inFlight),
			})
		}
		return true
	}
	return false
}

// Finalize stops the heavy ticker and runs the end-of-run checks,
// returning the report. Calling Finalize twice returns the same
// report.
//
// The strict end-state checks (deadlock, packet conservation, credit
// restoration) need a decided end state: they run only when no event
// is pending anywhere beyond the auditor's own parked tick. A run cut
// off at its horizon with traffic still in flight — or sharing the
// engine with a still-armed fault watchdog — skips them rather than
// guessing.
func (a *Auditor) Finalize() Report {
	if a.finalized {
		return a.final
	}
	a.finalized = true
	if a.ticker != nil {
		a.ticker.Stop()
	}
	r := Report{Created: a.created, Delivered: a.delivered, HopChecks: a.hopChecks}

	now := a.net.Engine.Now()
	split := a.net.Cfg.Split
	if split.CEscape <= 0 || split.CEscape >= split.CMax || split.CMax != a.net.Cfg.BufferCredits {
		a.report(Violation{
			At:        now,
			Invariant: InvCreditSplit,
			Detail: fmt.Sprintf("split ill-formed: CMax=%d CEscape=%d BufferCredits=%d (want 0 < C_0 < CMax = BufferCredits)",
				split.CMax, split.CEscape, a.net.Cfg.BufferCredits),
		})
	}
	pending := a.net.Engine.Pending()
	if a.ticker != nil && a.ticker.Scheduled() {
		pending--
	}
	if pending == 0 {
		inFlight := a.net.InFlight()
		if inFlight > 0 {
			a.report(Violation{
				At:        now,
				Invariant: InvDeadlock,
				Detail:    fmt.Sprintf("event queue empty with %d packets in flight", inFlight),
			})
		}
		lost := a.net.Faults.Lost
		if r.Created != r.Delivered+lost+uint64(inFlight) {
			a.report(Violation{
				At:        now,
				Invariant: InvPacketConservation,
				Detail: fmt.Sprintf("created %d != delivered %d + lost %d + in-flight %d",
					r.Created, r.Delivered, lost, inFlight),
			})
		}
		if inFlight == 0 {
			if err := a.net.CreditsIntact(); err != nil {
				a.report(Violation{At: now, Invariant: InvCreditsIntact, Detail: err.Error()})
			}
		}
	}
	if a.ticker != nil {
		r.HeavyTicks = a.ticker.Ticks()
	}
	r.ViolationCount = a.count
	r.Violations = a.violations
	a.violations = nil
	a.final = r
	return r
}
