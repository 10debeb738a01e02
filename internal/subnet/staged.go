package subnet

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/routing"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// StagedOptions models the timing of a real subnet-manager recovery:
// the SM does not learn about a fault instantly, and it reprograms
// forwarding tables one switch at a time over the management network
// (one VS command set per switch), not atomically.
type StagedOptions struct {
	// SweepDelay is the time between ReconfigureStaged being invoked
	// (the fault instant, typically) and the SM having swept the
	// subnet, computed new routes and started reprogramming.
	SweepDelay sim.Time

	// PerSwitchDelay is the VS-command latency of reprogramming one
	// switch; switch i is reprogrammed SweepDelay + (i+1)*PerSwitchDelay
	// after the call, in ascending switch-ID order.
	PerSwitchDelay sim.Time

	// OnDone, if set, runs right after the last switch is reprogrammed.
	// dropped is the total number of buffered packets the per-switch
	// reroutes had to discard as unroutable.
	OnDone func(dropped int)
}

// DefaultStagedOptions uses a 5 µs sweep and 1 µs per switch — small
// against the paper's measurement windows but long enough that the
// transient is observable.
func DefaultStagedOptions() StagedOptions {
	return StagedOptions{SweepDelay: 5_000, PerSwitchDelay: 1_000}
}

// Staged describes a scheduled staged reconfiguration.
type Staged struct {
	// FA is the adaptive routing function computed on the surviving
	// topology (what the tables will hold once the sweep completes).
	FA *routing.FA

	// StartAt is when table programming begins (sweep end); DoneAt is
	// when the last switch's table is in place.
	StartAt, DoneAt sim.Time
}

// ReconfigureStaged reacts to failed cables the way subnet.Reconfigure
// does, but spread over simulated time instead of atomically: the
// failure set (the given links plus every link already down, as a real
// sweep would discover) is routed around, and the new tables are
// installed one switch at a time on the network's event clock (see
// Routing.Stage).
//
// The call itself only validates, computes routes and schedules the
// sweep; the returned Staged reports when programming starts and
// completes. Duplicate links in failed are tolerated.
func ReconfigureStaged(net *fabric.Network, opts Options, st StagedOptions, failed ...topology.Link) (*Staged, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	for _, l := range failed {
		if err := net.SetLinkDown(l.A, l.B); err != nil {
			return nil, err
		}
	}
	r, err := Route(net, opts, net.DownLinks())
	if err != nil {
		return nil, err
	}
	return r.Stage(net, st)
}

func (st StagedOptions) validate() error {
	if st.SweepDelay < 0 || st.PerSwitchDelay < 0 {
		return fmt.Errorf("subnet: negative staged-reconfig delay %+v", st)
	}
	return nil
}

// Stage schedules the staged installation of r on the network's event
// clock, as a subnet manager's sweep would install freshly computed
// tables.
//
// From the sweep's start until a given switch is reprogrammed, that
// switch forwards on its escape option only — its adaptive options
// were computed against the dead topology and are not trusted. Escape
// paths stale-referencing a failed link leave packets parked on the
// dead port until that switch's reprogram+reroute; packets whose DLID
// the new tables cannot route are dropped and counted (the host-side
// retry policy, fabric.Config.Retry, re-injects them).
func (r *Routing) Stage(net *fabric.Network, st StagedOptions) (*Staged, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	now := net.Engine.Now()
	staged := &Staged{
		FA:      r.FA,
		StartAt: now + st.SweepDelay,
		DoneAt:  now + st.SweepDelay + sim.Time(len(net.Switches))*st.PerSwitchDelay,
	}

	// Sweep end: every switch's table is now known-stale; restrict all
	// of them to escape forwarding until each is reprogrammed.
	net.Engine.Schedule(st.SweepDelay, func() {
		for _, sw := range net.Switches {
			sw.SetEscapeOnly(true)
		}
	})
	droppedTotal := 0
	for s, sw := range net.Switches {
		s, sw := s, sw
		at := st.SweepDelay + sim.Time(s+1)*st.PerSwitchDelay
		net.Engine.Schedule(at, func() {
			if err := r.install(net, s); err != nil {
				// The images were sized from this network's address
				// plan; a write failure here is a programming bug, not
				// a runtime condition.
				panic(fmt.Sprintf("subnet: staged reprogram switch %d: %v", s, err))
			}
			sw.SetEscapeOnly(false)
			droppedTotal += sw.Reroute()
			if s == len(net.Switches)-1 && st.OnDone != nil {
				st.OnDone(droppedTotal)
			}
		})
	}
	return staged, nil
}
