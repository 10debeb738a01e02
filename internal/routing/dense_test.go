package routing

import (
	"fmt"
	"reflect"
	"testing"

	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// refTablesVariant is the per-destination construction TablesVariant
// replaced, kept as its oracle: fresh buffers, a fresh rotated
// neighbour list per visit and a fresh (level, id) sort per
// destination.
func refTablesVariant(u *UpDown, variant int) *Deterministic {
	n := u.Topo.NumSwitches
	rotated := func(s int) []int {
		ns := u.Topo.Neighbors(s)
		if variant == 0 || len(ns) < 2 {
			return ns
		}
		k := (variant + s) % len(ns)
		return append(append([]int(nil), ns[k:]...), ns[:k]...)
	}
	next := make([][]int, n)
	dist := make([][]int, n)
	for s := range next {
		next[s] = make([]int, n)
		dist[s] = make([]int, n)
	}
	for d := 0; d < n; d++ {
		nd, dd := make([]int, n), make([]int, n)
		for i := range nd {
			nd[i], dd[i] = -1, -1
		}
		dd[d] = 0
		queue := []int{d}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range rotated(x) {
				if !u.IsUp(y, x) && dd[y] == -1 {
					dd[y] = dd[x] + 1
					nd[y] = x
					queue = append(queue, y)
				}
			}
		}
		order := make([]int, 0, n)
		for s := 0; s < n; s++ {
			order = append(order, s)
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				a, b := order[j-1], order[j]
				if u.Level[a] < u.Level[b] || (u.Level[a] == u.Level[b] && a < b) {
					break
				}
				order[j-1], order[j] = order[j], order[j-1]
			}
		}
		for _, s := range order {
			if dd[s] != -1 || s == d {
				continue
			}
			for _, m := range rotated(s) {
				if !u.IsUp(s, m) || dd[m] == -1 {
					continue
				}
				if cand := dd[m] + 1; dd[s] == -1 || cand < dd[s] {
					dd[s] = cand
					nd[s] = m
				}
			}
		}
		for s := 0; s < n; s++ {
			next[s][d], dist[s][d] = nd[s], dd[s]
		}
	}
	return &Deterministic{Topo: u.Topo, UD: u, NextHop: next, PathLen: dist}
}

// refNewFA is the per-pair option construction NewFA replaced.
func refNewFA(det *Deterministic) [][][]int {
	t := det.Topo
	n := t.NumSwitches
	dists := make([][]int, n)
	for s := range dists {
		dists[s] = t.Distances(s)
	}
	adaptive := make([][][]int, n)
	for s := 0; s < n; s++ {
		adaptive[s] = make([][]int, n)
		for d := 0; d < n; d++ {
			if s == d || !det.Routes(d) {
				continue
			}
			var opts []int
			for _, m := range t.Neighbors(s) {
				if dists[m][d] == dists[s][d]-1 {
					opts = append(opts, m)
				}
			}
			adaptive[s][d] = opts
		}
	}
	return adaptive
}

// oracleTopologies is a spread of shapes: irregular networks of
// several sizes and degrees (some degraded), a fat-tree with host-less
// spine switches, and a torus.
func oracleTopologies(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	out := map[string]*topology.Topology{}
	for _, c := range []struct {
		n, k int
		seed uint64
	}{{8, 3, 1}, {16, 4, 2}, {32, 6, 3}, {64, 4, 4}} {
		top := irregular(t, c.n, c.k, c.seed)
		out[fmt.Sprintf("irregular-%d-%d", c.n, c.k)] = top
		if deg := top.Without(top.Links[0], top.Links[len(top.Links)/2]); deg.Connected() {
			out[fmt.Sprintf("irregular-%d-%d-degraded", c.n, c.k)] = deg
		}
	}
	ft, err := topology.GenerateFatTree(topology.FatTreeSpec{Arity: 2, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	out["fattree"] = ft
	torus, err := topology.GenerateTorus(topology.TorusSpec{Dims: []int{4, 3}, HostsPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	out["torus"] = torus
	return out
}

func TestTablesVariantMatchesReference(t *testing.T) {
	for name, top := range oracleTopologies(t) {
		ud := mustUD(t, top)
		for v := 0; v < 4; v++ {
			got, want := ud.TablesVariant(v), refTablesVariant(ud, v)
			if !reflect.DeepEqual(got.NextHop, want.NextHop) || !reflect.DeepEqual(got.PathLen, want.PathLen) {
				t.Fatalf("%s variant %d: tables differ from the reference", name, v)
			}
		}
	}
}

func TestNewFAMatchesReference(t *testing.T) {
	for name, top := range oracleTopologies(t) {
		det := mustUD(t, top).Tables()
		if got, want := NewFA(det).Adaptive, refNewFA(det); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: option sets differ from the reference", name)
		}
	}
}

// randomTables is a next-hop relation choosing a random neighbour per
// (switch, destination) pair — usually cyclic, sometimes not.
func randomTables(top *topology.Topology, rng *sim.RNG) *Deterministic {
	n := top.NumSwitches
	next := make([][]int, n)
	for s := range next {
		next[s] = make([]int, n)
		for d := range next[s] {
			next[s][d] = -1
			if ns := top.Neighbors(s); s != d && len(ns) > 0 {
				next[s][d] = ns[rng.Intn(len(ns))]
			}
		}
	}
	return &Deterministic{Topo: top, NextHop: next}
}

// TestDenseAcyclicMatchesFindCycle checks the array-based acyclicity
// decision against the map-based CDG walk, on legal routings (acyclic)
// and on random next-hop relations and tie-break unions (mostly
// cyclic).
func TestDenseAcyclicMatchesFindCycle(t *testing.T) {
	rng := sim.NewRNG(11)
	for name, top := range oracleTopologies(t) {
		ud := mustUD(t, top)
		sets := [][]*Deterministic{
			{ud.Tables()},
			{ud.TablesVariant(0), ud.TablesVariant(1), ud.TablesVariant(2)},
		}
		for i := 0; i < 8; i++ {
			sets = append(sets, []*Deterministic{randomTables(top, rng)})
		}
		cyclic := 0
		for i, dets := range sets {
			union := make(map[int][]int)
			for _, det := range dets {
				for c, deps := range EscapeCDG(det) {
					union[c] = append(union[c], deps...)
				}
			}
			want := FindCycle(union) == nil
			got, ok := denseAcyclic(dets)
			if !ok {
				t.Fatalf("%s set %d: dense check could not index legal tables", name, i)
			}
			if got != want {
				t.Fatalf("%s set %d: dense acyclic = %v, map-based = %v", name, i, got, want)
			}
			if !got {
				cyclic++
			}
			if err := VerifyDeadlockFreeAll(dets); (err == nil) != want {
				t.Fatalf("%s set %d: VerifyDeadlockFreeAll = %v, map-based acyclic = %v", name, i, err, want)
			}
		}
		if cyclic == 0 {
			t.Fatalf("%s: no cyclic relation exercised", name)
		}
	}
}

// TestDenseAcyclicFallsBack: tables with a next hop that is not a link
// cannot be indexed densely; verification falls back to the map-based
// CDG instead of misjudging them.
func TestDenseAcyclicFallsBack(t *testing.T) {
	top := irregular(t, 8, 3, 1)
	det := mustUD(t, top).Tables()
	const s, d = 0, 1
	broken := &Deterministic{Topo: top, NextHop: make([][]int, len(det.NextHop))}
	for i := range det.NextHop {
		broken.NextHop[i] = append([]int(nil), det.NextHop[i]...)
	}
	for x := 0; x < top.NumSwitches; x++ {
		if x != s && !contains(top.Neighbors(s), x) {
			broken.NextHop[s][d] = x
			break
		}
	}
	if _, ok := denseAcyclic([]*Deterministic{broken}); ok {
		t.Fatal("dense check indexed a next hop that is not a link")
	}
	union := EscapeCDG(broken)
	if err := VerifyDeadlockFree(broken); (err == nil) != (FindCycle(union) == nil) {
		t.Fatalf("fallback verdict %v disagrees with the map-based CDG", err)
	}
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
