package subnet

import (
	"ibasim/internal/fabric"
	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// Reconfigure reacts to failed cables the way an IBA subnet manager
// does after a sweep discovers a topology change: it recomputes
// routing around every link that is down — the ones named here plus
// any failed earlier, as a real sweep would discover — reprograms
// every forwarding table (port numbering is unchanged — ports are
// physical), and re-routes packets already buffered in switches so
// none keeps waiting on a dead port. The failure set must leave the
// switch graph connected.
//
// The reconfiguration is modelled as atomic at the current simulated
// instant. Real subnet managers reprogram switches one VS-command at a
// time; ReconfigureStaged models that transient (sweep delay,
// per-switch programming latency, escape-only forwarding on stale
// switches). Duplicate links in failed are tolerated: the failure set
// is deduplicated and re-failing a dead link is a no-op.
func Reconfigure(net *fabric.Network, opts Options, failed ...topology.Link) (*routing.FA, error) {
	for _, l := range failed {
		if err := net.SetLinkDown(l.A, l.B); err != nil {
			return nil, err
		}
	}
	r, err := Route(net, opts, net.DownLinks())
	if err != nil {
		return nil, err
	}
	if err := r.installAll(net); err != nil {
		return nil, err
	}
	for _, sw := range net.Switches {
		sw.Reroute()
	}
	return r.FA, nil
}
