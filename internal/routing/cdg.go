package routing

import (
	"fmt"
	"math/bits"
)

// This file implements the channel dependency graph (CDG) analysis
// used to verify deadlock freedom. Following Duato's theory (which §3
// of the paper invokes), the FA routing is deadlock-free iff its
// escape sub-network is: packets blocked on adaptive queues can always
// select the escape option, and the escape network — the up*/down*
// routing on escape queues — must have an acyclic channel dependency
// graph.
//
// A channel here is a directed inter-switch link (a -> b). The escape
// routing induces a dependency c1 -> c2 when some packet held by c1
// may request c2 next, i.e. when the deterministic tables route some
// destination over c1 = (s, m) and then c2 = (m, x).

// ChannelID encodes the directed link a->b of an n-switch topology as
// a single integer. FindCycle results over CDGs built with it decode
// with (c/n, c%n); FormatCycle renders them.
func ChannelID(a, b, n int) int { return a*n + b }

// channelID is the package-internal alias kept for existing callers.
func channelID(a, b, n int) int { return ChannelID(a, b, n) }

// CDGFromNextHops builds a channel dependency graph from an arbitrary
// next-hop relation: for every destination d in [0, numDests) and
// switch s, next(s, d) returns the next switch on the escape path
// toward d, with ok=false when s does not forward d further (s is the
// destination's switch, or has no route). A packet holding channel
// (s, m) that must travel on to x induces the dependency
// (s→m) → (m→x). The runtime auditor uses this against the LIVE
// forwarding tables (destinations are hosts, next hops read from the
// programmed escape slots); EscapeCDG uses it against a computed
// up*/down* routing (destinations are switches).
func CDGFromNextHops(numSwitches, numDests int, next func(s, d int) (int, bool)) map[int][]int {
	depSet := make(map[int]map[int]bool)
	for d := 0; d < numDests; d++ {
		for s := 0; s < numSwitches; s++ {
			m, ok := next(s, d)
			if !ok {
				continue
			}
			x, ok := next(m, d)
			if !ok {
				continue // delivered at m, no further channel needed
			}
			c1 := ChannelID(s, m, numSwitches)
			c2 := ChannelID(m, x, numSwitches)
			if depSet[c1] == nil {
				depSet[c1] = make(map[int]bool)
			}
			depSet[c1][c2] = true
		}
	}
	dep := make(map[int][]int, len(depSet))
	for c, set := range depSet {
		for c2 := range set {
			dep[c] = append(dep[c], c2)
		}
	}
	return dep
}

// EscapeCDG builds the dependency adjacency of the escape network:
// dep[c1] lists the channels some packet can request while holding c1.
// Destinations are the host-bearing switches — the only switches
// forwarding tables hold routes to (families like the fat-tree leave
// host-less spine switches without destination entries).
func EscapeCDG(det *Deterministic) map[int][]int {
	n := det.Topo.NumSwitches
	return CDGFromNextHops(n, n, func(s, d int) (int, bool) {
		if s == d || !det.Routes(d) {
			return 0, false
		}
		hop := det.NextHop[s][d]
		if hop < 0 {
			return 0, false
		}
		return hop, true
	})
}

// FindCycle returns a cycle in the dependency graph as a channel-ID
// sequence (first == last), or nil if the graph is acyclic.
func FindCycle(dep map[int][]int) []int {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	color := make(map[int]int)
	parent := make(map[int]int)
	var cycleStart, cycleEnd = -1, -1

	var dfs func(c int) bool
	dfs = func(c int) bool {
		color[c] = gray
		for _, nxt := range dep[c] {
			switch color[nxt] {
			case white:
				parent[nxt] = c
				if dfs(nxt) {
					return true
				}
			case gray:
				cycleStart, cycleEnd = nxt, c
				return true
			}
		}
		color[c] = black
		return false
	}
	for c := range dep {
		if color[c] == white && dfs(c) {
			// Reconstruct the cycle by walking parents back from
			// cycleEnd to cycleStart.
			cycle := []int{cycleStart}
			for v := cycleEnd; v != cycleStart; v = parent[v] {
				cycle = append(cycle, v)
			}
			cycle = append(cycle, cycleStart)
			// Reverse into forward order.
			for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
				cycle[i], cycle[j] = cycle[j], cycle[i]
			}
			return cycle
		}
	}
	return nil
}

// VerifyDeadlockFree asserts that the escape network's CDG is acyclic
// and returns a descriptive error naming the offending cycle if not.
func VerifyDeadlockFree(det *Deterministic) error {
	return VerifyDeadlockFreeAll([]*Deterministic{det})
}

// VerifyDeadlockFreeAll checks the union channel dependency graph of
// several deterministic routings sharing one network — the situation
// of source-selected multipath, where every packet follows one of the
// routings end to end. The union must be acyclic for the mixture to
// be deadlock-free.
func VerifyDeadlockFreeAll(dets []*Deterministic) error {
	if len(dets) == 0 {
		return nil
	}
	if acyclic, ok := denseAcyclic(dets); ok && acyclic {
		return nil
	}
	// A cycle (or tables the dense check cannot index): name it on the
	// map-based CDG, which accepts any next-hop relation.
	union := make(map[int][]int)
	for _, det := range dets {
		for c, deps := range EscapeCDG(det) {
			union[c] = append(union[c], deps...)
		}
	}
	cycle := FindCycle(union)
	if cycle == nil {
		return nil
	}
	topo := dets[0].Topo
	return fmt.Errorf("routing: escape CDG cycle:%s", FormatCycleNamed(cycle, topo.NumSwitches, topo.NodeName))
}

// denseAcyclic decides whether the union escape CDG of dets is acyclic
// over flat arrays instead of maps. Channels are the directed links
// (s -> adj[s][i]), numbered off[s]+i; a dependency (s->m) -> (m->x) is
// one bit, indexed by x's position in adj[m], of channel (s->m)'s
// dependency mask. Kahn's peeling then removes every channel with no
// remaining predecessor: the graph is acyclic iff all peel. ok is
// false when the tables cannot be indexed this way (routings over
// different topologies, or a next hop that is not a link); callers
// fall back to the map-based CDG.
func denseAcyclic(dets []*Deterministic) (acyclic, ok bool) {
	topo := dets[0].Topo
	n := topo.NumSwitches
	adj := topo.Adjacency()
	off := make([]int, n+1)
	maxDeg := 0
	for s, ns := range adj {
		off[s+1] = off[s] + len(ns)
		if len(ns) > maxDeg {
			maxDeg = len(ns)
		}
	}
	channels := off[n]
	words := (maxDeg + 63) / 64
	dep := make([]uint64, channels*words)
	pos := make([]int, n) // pos[s]: index of s's next hop in adj[s], -1 if none
	for _, det := range dets {
		if det.Topo != topo {
			return false, false
		}
		for d := 0; d < n; d++ {
			if !det.Routes(d) {
				continue
			}
			for s := 0; s < n; s++ {
				pos[s] = -1
				hop := det.NextHop[s][d]
				if s == d || hop < 0 {
					continue
				}
				for i, m := range adj[s] {
					if m == hop {
						pos[s] = i
						break
					}
				}
				if pos[s] < 0 {
					return false, false
				}
			}
			for s := 0; s < n; s++ {
				if pos[s] < 0 {
					continue
				}
				m := adj[s][pos[s]]
				if x := pos[m]; x >= 0 {
					c := off[s] + pos[s]
					dep[c*words+x/64] |= 1 << (x % 64)
				}
			}
		}
	}
	head := make([]int, channels) // head[c]: the switch channel c enters
	for s, ns := range adj {
		copy(head[off[s]:], ns)
	}
	indeg := make([]int, channels)
	visit := func(c int, f func(c2 int)) {
		m := head[c]
		for w := 0; w < words; w++ {
			for word := dep[c*words+w]; word != 0; word &= word - 1 {
				f(off[m] + w*64 + bits.TrailingZeros64(word))
			}
		}
	}
	for c := 0; c < channels; c++ {
		visit(c, func(c2 int) { indeg[c2]++ })
	}
	queue := make([]int, 0, channels)
	for c, k := range indeg {
		if k == 0 {
			queue = append(queue, c)
		}
	}
	for i := 0; i < len(queue); i++ {
		visit(queue[i], func(c2 int) {
			if indeg[c2]--; indeg[c2] == 0 {
				queue = append(queue, c2)
			}
		})
	}
	return len(queue) == channels, true
}

// FormatCycle renders a FindCycle result over ChannelID-encoded
// channels as " (a->b) (b->c) ..." for diagnostics.
func FormatCycle(cycle []int, n int) string {
	return FormatCycleNamed(cycle, n, nil)
}

// FormatCycleNamed renders a cycle with family-aware channel labels:
// name maps a switch ID to its display label (tree level/position,
// torus coordinates — topology.Topology.NodeName). A nil name falls
// back to bare switch IDs.
func FormatCycleNamed(cycle []int, n int, name func(int) string) string {
	if name == nil {
		name = func(s int) string { return fmt.Sprintf("%d", s) }
	}
	out := ""
	for _, c := range cycle {
		out += fmt.Sprintf(" (%s->%s)", name(c/n), name(c%n))
	}
	return out
}
