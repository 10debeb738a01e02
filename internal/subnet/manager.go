// Package subnet plays the role of the IBA subnet manager: at
// initialization time it computes the routing function over the
// discovered topology, assigns every destination port its LID range
// (done via ib.AddressPlan when the network is built), and fills each
// switch's linear forwarding table — storing the different routing
// choices of a destination "in a range of addresses of the forwarding
// tables, as if they were different destinations" (§4.1).
package subnet

import (
	"ibasim/internal/fabric"
	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// Options configures table computation.
type Options struct {
	// MaxRoutingOptions is the paper's MR: the total number of routing
	// options programmed per destination at each switch, counting the
	// escape option. It must fit the network's LID range size
	// (MR <= 2^LMC). Zero means "fill every slot the LMC allows".
	MaxRoutingOptions int

	// Root forces the up*/down* root switch; -1 selects the default
	// (highest-degree) root.
	Root int

	// Engine selects the routing family builder (fat-tree D-mod-K,
	// torus dimension-order, ...). nil means up*/down* rooted per Root —
	// the paper's irregular-network configuration. Reconfiguration
	// passes the surviving topology back through the same builder;
	// structured-family builders detect the broken structure and fall
	// back to up*/down* on their own.
	Engine routing.Builder

	// SourceMultipath programs this many alternative deterministic
	// up*/down* routings into each destination's LID block instead of
	// the FA layout — the baseline the paper's introduction discusses
	// (path selected at the source, plain switches). Requires the
	// network's Config.SourceMultipath to match. 0 disables it.
	SourceMultipath int
}

// DefaultOptions requests two routing options (one escape, one
// adaptive), the paper's Figure-3 configuration, with automatic root
// selection.
func DefaultOptions() Options { return Options{MaxRoutingOptions: 2, Root: -1} }

// Configure computes the routing of the network's full topology (see
// Route for the table layout) and programs every switch's forwarding
// table. It returns the FA routing function for analysis (Table 2,
// path statistics).
func Configure(net *fabric.Network, opts Options) (*routing.FA, error) {
	r, err := Route(net, opts, nil)
	if err != nil {
		return nil, err
	}
	if err := r.installAll(net); err != nil {
		return nil, err
	}
	return r.FA, nil
}

// buildEngine constructs and verifies the routing engine for one
// topology per the options: the configured family builder, or the
// up*/down* default. Verification (escape-CDG acyclicity) always runs
// before any table is written.
func buildEngine(topo *topology.Topology, opts Options) (routing.Engine, error) {
	build := opts.Engine
	if build == nil {
		build = routing.UpDownBuilder(opts.Root)
	}
	eng, err := build(topo)
	if err != nil {
		return nil, err
	}
	if err := eng.Verify(); err != nil {
		return nil, err
	}
	return eng, nil
}
