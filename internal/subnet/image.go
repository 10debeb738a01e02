package subnet

import (
	"fmt"
	"slices"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// Routing is one computed, verified routing of a network: the adaptive
// routing function plus every switch's complete new linear forwarding
// table (its table image), computed for one set of failed links.
// Configure, Reconfigure and ReconfigureStaged all install a Routing;
// a caller that reconfigures repeatedly with fixed Options may keep
// the last one and install it again while the failure set is unchanged
// (Avoids), because the routing is a pure function of the topology,
// the options and the failure set.
type Routing struct {
	// FA is the adaptive routing function the images were built from.
	FA *routing.FA

	// Down is the failure set the routing avoids, in topology link
	// order (as fabric.Network.DownLinks reports it).
	Down []topology.Link

	// images[s] holds switch s's slots for every host LID, in LID
	// order from the first host's base LID: host h's block of
	// 2^LMC slots starts at h*2^LMC.
	images [][]ib.PortID
}

// Route computes the routing of net with the links in down treated as
// failed (nil routes the full topology). The failed links must leave
// the switch graph connected. The routing engine is built per opts and
// its deadlock-freedom check runs before any image is produced; no
// table is written.
//
// Slot layout per destination host (block of 2^LMC slots):
//
//	slot 0: escape option — the engine's deterministic next hop;
//	slots 1 .. MR-1: adaptive options — minimal next hops;
//	remaining slots: cycle-filled with the adaptive options so every
//	address of the block is programmed (a spec requirement: any DLID
//	in the range must route).
//
// On a deterministic-only switch (§4.2) every slot of a block stores
// the escape port. With opts.SourceMultipath = k > 1, slot i instead
// holds the next hop of up*/down* tie-break variant i mod k. Hosts on
// the switch itself get their host-facing port in every slot.
//
// Every host on one destination switch gets the same block, so each
// (switch, destination switch) pair is resolved once and its block
// copied to the switch's other hosts.
func Route(net *fabric.Network, opts Options, down []topology.Link) (*Routing, error) {
	topo := net.Topo
	if len(down) > 0 {
		topo = topo.Without(down...)
		if !topo.Connected() {
			return nil, fmt.Errorf("subnet: failures disconnect the network")
		}
	}
	block := net.Plan.RangeSize()
	mr := opts.MaxRoutingOptions
	if mr <= 0 {
		mr = block
	}
	multipath := opts.SourceMultipath > 1
	if !multipath && mr > block {
		return nil, fmt.Errorf("subnet: MR %d exceeds LID range size %d (raise LMC)", mr, block)
	}
	eng, err := buildEngine(topo, opts)
	if err != nil {
		return nil, err
	}
	fa := eng.Adaptive()
	var variants []*routing.Deterministic
	if multipath {
		if variants, err = multipathVariants(net, eng, opts.SourceMultipath); err != nil {
			return nil, err
		}
	}

	n, hosts := len(net.Switches), net.Topo.NumHosts()
	r := &Routing{FA: fa, Down: down, images: make([][]ib.PortID, n)}
	backing := make([]ib.PortID, n*hosts*block)
	// portOf[m] is switch s's port toward neighbour m (-1 if none),
	// from the ORIGINAL wiring: ports are physical and survive faults.
	portOf := make([]ib.PortID, n)
	for i := range portOf {
		portOf[i] = ib.InvalidPort
	}
	adaptive := make([]ib.PortID, 0, block)
	for s, sw := range net.Switches {
		img := backing[s*hosts*block : (s+1)*hosts*block : (s+1)*hosts*block]
		r.images[s] = img
		nbrs := net.Topo.Neighbors(s)
		for i := len(nbrs) - 1; i >= 0; i-- { // first port wins on parallel cables
			portOf[nbrs[i]] = ib.PortID(net.Topo.InterSwitchPortBase(s) + i)
		}
		port := func(hop int) (ib.PortID, error) {
			if hop < 0 || hop >= n || portOf[hop] == ib.InvalidPort {
				return 0, fmt.Errorf("subnet: switch %d has no port toward %d", s, hop)
			}
			return portOf[hop], nil
		}
		// Host IDs are dense in switch order, so destination switch d's
		// hosts own consecutive blocks of the image.
		dst := 0
		for d := 0; d < n; d++ {
			k := net.Topo.HostCount(d)
			if k == 0 {
				continue
			}
			first := dst
			dst += k
			blocks := img[first*block : dst*block]
			if d == s {
				// Local delivery: the host-facing port is the only option.
				for i := range blocks {
					blocks[i] = net.HostPort(first + i/block)
				}
				continue
			}
			pattern := blocks[:block]
			if multipath {
				for off := range pattern {
					if pattern[off], err = port(variants[off%len(variants)].NextHop[s][d]); err != nil {
						return nil, err
					}
				}
			} else {
				escape, err := port(fa.Escape(s, d))
				if err != nil {
					return nil, err
				}
				adaptive = adaptive[:0]
				if sw.Enhanced() {
					for _, hop := range fa.Options(s, d, mr-1) {
						// The §4.2 fence: no adaptive option leads into a
						// deterministic-only switch (see fenced).
						if fenced(net, hop, d) {
							continue
						}
						p, err := port(hop)
						if err != nil {
							return nil, err
						}
						adaptive = append(adaptive, p)
					}
				}
				pattern[0] = escape
				for off := 1; off < block; off++ {
					pattern[off] = escape
					if len(adaptive) > 0 {
						pattern[off] = adaptive[(off-1)%len(adaptive)]
					}
				}
			}
			for h := 1; h < k; h++ {
				copy(blocks[h*block:(h+1)*block], pattern)
			}
		}
		for _, m := range nbrs {
			portOf[m] = ib.InvalidPort
		}
	}
	return r, nil
}

// fenced reports whether an adaptive hop toward destination switch d
// must be left out of the tables. In mixed subnets (§4.2) adaptive
// options leading to a deterministic-only switch are NOT programmed.
// A stock switch's VL buffer has a single service point, so packets
// parked behind its head inherit the head's dependencies; if adaptive
// (non-escape) moves could deliver packets into that buffer, its
// dependencies would no longer be chains of consecutive escape table
// moves and the escape network's acyclicity — the whole
// deadlock-freedom argument — would break (we reproduced exactly that
// hang before adding this filter; TestMixedPopulationTrafficDrains
// pins it). Restricting adaptivity to enhanced-to-enhanced hops keeps
// every packet in a stock switch on a pure table path; the
// destination's own switch is exempt, since packets leave the fabric
// there.
func fenced(net *fabric.Network, hop, d int) bool {
	return hop != d && !net.Switches[hop].Enhanced()
}

// multipathVariants returns the k up*/down* tie-break variants the
// source-multipath layout programs. All variants conform to the same
// up*/down* relation, so their mixture is deadlock-free;
// VerifyDeadlockFreeAll re-checks the union CDG mechanically.
func multipathVariants(net *fabric.Network, eng routing.Engine, k int) ([]*routing.Deterministic, error) {
	ud := eng.Deterministic().UD
	if ud == nil {
		return nil, fmt.Errorf("subnet: source multipath needs up*/down* variants, not the %s engine", eng.Name())
	}
	if block := net.Plan.RangeSize(); k > block {
		return nil, fmt.Errorf("subnet: %d source paths exceed LID range size %d (raise LMC)", k, block)
	}
	if net.Cfg.SourceMultipath != k {
		return nil, fmt.Errorf("subnet: network configured for %d source paths, manager for %d",
			net.Cfg.SourceMultipath, k)
	}
	variants := make([]*routing.Deterministic, k)
	for v := range variants {
		variants[v] = ud.TablesVariant(v)
		if err := variants[v].Validate(); err != nil {
			return nil, fmt.Errorf("subnet: variant %d: %w", v, err)
		}
	}
	if err := routing.VerifyDeadlockFreeAll(variants); err != nil {
		return nil, err
	}
	return variants, nil
}

// Avoids reports whether r was computed for exactly the failure set
// down (in topology link order, as fabric.Network.DownLinks returns
// it) — the condition under which installing r again is exact.
func (r *Routing) Avoids(down []topology.Link) bool { return slices.Equal(down, r.Down) }

// install writes switch s's image into its forwarding table. The
// table skips slots whose live value already matches, so an unchanged
// block keeps its cached decode; comparing against the live table
// (not the previous image) keeps overlapping staged sweeps exact.
func (r *Routing) install(net *fabric.Network, s int) error {
	return net.Switches[s].Table().SetRange(net.Plan.BaseLID(0), r.images[s])
}

// installAll writes every switch's image at once.
func (r *Routing) installAll(net *fabric.Network) error {
	for s := range net.Switches {
		if err := r.install(net, s); err != nil {
			return err
		}
	}
	return nil
}
