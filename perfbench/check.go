package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"maxwarp/internal/graph"
)

// The checks here are the benchmark's own: they test each output against
// the defining property of the quantity, on the benchmark's own copy of the
// graph, and never against a stored copy of an earlier output.

// unreached is the value a checked distance vector uses for "no path".
const unreached = int32(-1)

// edgeModel is the benchmark's own copy of a directed simple graph with
// edge weights: the model mutations are applied to, with the simple-graph
// semantics graph.Delta and /mutate document.
type edgeModel struct {
	n   int
	out []map[int32]int32
	// live lists the live edges for uniform sampling; pos indexes it.
	live []graph.Edge
	pos  map[graph.Edge]int
}

func newEdgeModel(g *graph.CSR, weights []int32) *edgeModel {
	m := &edgeModel{n: g.NumVertices(), out: make([]map[int32]int32, g.NumVertices()), pos: map[graph.Edge]int{}}
	for v := range m.out {
		m.out[v] = map[int32]int32{}
	}
	for v := 0; v < m.n; v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			w := int32(1)
			if weights != nil {
				w = weights[i]
			}
			m.add(int32(v), g.Col[i], w)
		}
	}
	return m
}

func (m *edgeModel) has(u, v int32) bool { _, ok := m.out[u][v]; return ok }

func (m *edgeModel) add(u, v, w int32) {
	m.out[u][v] = w
	e := graph.Edge{Src: u, Dst: v}
	m.pos[e] = len(m.live)
	m.live = append(m.live, e)
}

func (m *edgeModel) remove(u, v int32) {
	delete(m.out[u], v)
	e := graph.Edge{Src: u, Dst: v}
	i := m.pos[e]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, e)
}

// apply applies a batch in order and returns the statistics graph.Delta
// must report for it. Unweighted models keep weight 1.
func (m *edgeModel) apply(batch []graph.EdgeMutation, weighted bool) graph.ApplyStats {
	var st graph.ApplyStats
	for _, x := range batch {
		switch {
		case x.Src == x.Dst:
			st.SelfLoops++
		case x.Del && m.has(x.Src, x.Dst):
			m.remove(x.Src, x.Dst)
			st.Deleted++
		case x.Del:
			st.AbsentDeletes++
		case m.has(x.Src, x.Dst):
			st.DupInserts++
		default:
			w := x.Weight
			if !weighted || w == 0 {
				w = 1
			}
			m.add(x.Src, x.Dst, w)
			st.Inserted++
		}
	}
	return st
}

// applyReverting applies a batch like apply and also returns a batch that
// takes the model back to its state before: it re-inserts, with their
// weights, the edges the batch removed and deletes the edges it added.
func (m *edgeModel) applyReverting(batch []graph.EdgeMutation, weighted bool) (graph.ApplyStats, []graph.EdgeMutation) {
	type state struct {
		live bool
		w    int32
	}
	before := map[graph.Edge]state{}
	var touched []graph.Edge
	for _, x := range batch {
		e := graph.Edge{Src: x.Src, Dst: x.Dst}
		if _, ok := before[e]; !ok && x.Src != x.Dst {
			w, live := m.out[x.Src][x.Dst]
			before[e] = state{live, w}
			touched = append(touched, e)
		}
	}
	st := m.apply(batch, weighted)
	var rev []graph.EdgeMutation
	for _, e := range touched {
		b := before[e]
		w, live := m.out[e.Src][e.Dst]
		if live && (!b.live || w != b.w) {
			rev = append(rev, graph.EdgeMutation{Src: e.Src, Dst: e.Dst, Del: true})
		}
		if b.live && (!live || w != b.w) {
			rev = append(rev, graph.EdgeMutation{Src: e.Src, Dst: e.Dst, Weight: b.w})
		}
	}
	return st, rev
}

// forEdge calls f for every live edge.
func (m *edgeModel) forEdge(f func(u, v, w int32)) {
	for u, adj := range m.out {
		for v, w := range adj {
			f(int32(u), v, w)
		}
	}
}

// randomBatch draws a mixed batch from the model's current state: dels
// deletions of live edges, ins insertions of fresh random pairs, plus one
// duplicate insert, one delete of an absent edge and one self-loop, which
// the simple-graph semantics must count as no-ops. Weights of inserts are
// 1..maxW.
func (m *edgeModel) randomBatch(rng *rand.Rand, dels, ins int, maxW int32) []graph.EdgeMutation {
	var b []graph.EdgeMutation
	picked := map[graph.Edge]bool{}
	for len(b) < dels && len(picked) < len(m.live) {
		e := m.live[rng.Intn(len(m.live))]
		if picked[e] {
			continue
		}
		picked[e] = true
		b = append(b, graph.EdgeMutation{Src: e.Src, Dst: e.Dst, Del: true})
	}
	n := int32(m.n)
	fresh := func() graph.Edge {
		for {
			e := graph.Edge{Src: rng.Int31n(n), Dst: rng.Int31n(n)}
			if e.Src != e.Dst && !m.has(e.Src, e.Dst) && !picked[e] {
				picked[e] = true
				return e
			}
		}
	}
	for i := 0; i < ins; i++ {
		e := fresh()
		b = append(b, graph.EdgeMutation{Src: e.Src, Dst: e.Dst, Weight: 1 + rng.Int31n(maxW)})
	}
	// No-ops: an edge that stays live, an absent edge, a self-loop.
	for tries := 0; tries < 64; tries++ {
		e := m.live[rng.Intn(len(m.live))]
		if !picked[e] {
			picked[e] = true
			b = append(b, graph.EdgeMutation{Src: e.Src, Dst: e.Dst, Weight: 1})
			break
		}
	}
	e := fresh()
	b = append(b, graph.EdgeMutation{Src: e.Src, Dst: e.Dst, Del: true})
	v := rng.Int31n(n)
	b = append(b, graph.EdgeMutation{Src: v, Dst: v, Weight: 1})
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// symmetric returns the batch with every mutation in both directions.
func symmetric(b []graph.EdgeMutation) []graph.EdgeMutation {
	out := make([]graph.EdgeMutation, 0, 2*len(b))
	for _, m := range b {
		r := m
		r.Src, r.Dst = m.Dst, m.Src
		out = append(out, m, r)
	}
	return out
}

// csrEdges iterates a CSR with optional weights (nil = unit).
func csrEdges(g *graph.CSR, weights []int32) func(f func(u, v, w int32)) {
	return func(f func(u, v, w int32)) {
		for u := 0; u < g.NumVertices(); u++ {
			for i := g.RowPtr[u]; i < g.RowPtr[u+1]; i++ {
				w := int32(1)
				if weights != nil {
					w = weights[i]
				}
				f(int32(u), g.Col[i], w)
			}
		}
	}
}

// checkPaths checks a distance vector (unreached for no path) by the
// properties that define shortest paths from src: the source is at 0, no
// edge improves any value, and every other reached vertex has a tight
// in-edge from a reached vertex. unit forces every weight to 1 (BFS
// levels).
func checkPaths(n int, edges func(func(u, v, w int32)), src int32, dist []int32, unit bool) error {
	if len(dist) != n {
		return fmt.Errorf("%d values for %d vertices", len(dist), n)
	}
	if dist[src] != 0 {
		return fmt.Errorf("source %d at %d, want 0", src, dist[src])
	}
	tight := make([]bool, n)
	tight[src] = true
	var bad error
	edges(func(u, v, w int32) {
		if bad != nil || dist[u] == unreached {
			return
		}
		if unit {
			w = 1
		}
		d := dist[u] + w
		switch {
		case dist[v] == unreached || d < dist[v]:
			bad = fmt.Errorf("edge %d->%d improves vertex %d from %d to %d", u, v, v, dist[v], d)
		case d == dist[v]:
			tight[v] = true
		}
	})
	if bad != nil {
		return bad
	}
	for v := 0; v < n; v++ {
		if dist[v] != unreached && (dist[v] < 0 || !tight[v]) {
			return fmt.Errorf("vertex %d at %d has no tight in-edge", v, dist[v])
		}
	}
	return nil
}

// mapUnreached rewrites a distance vector's "no path" sentinel to
// unreached.
func mapUnreached(dist []int32, sentinel int32) []int32 {
	out := make([]int32, len(dist))
	for i, d := range dist {
		if d == sentinel {
			out[i] = unreached
		} else {
			out[i] = d
		}
	}
	return out
}

// componentMins returns, per vertex, the minimum vertex id of its weakly
// connected component, by union-find over the edges.
func componentMins(n int, edges func(func(u, v, w int32))) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	edges(func(u, v, _ int32) {
		a, b := find(u), find(v)
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	})
	out := make([]int32, n)
	for v := range out {
		out[v] = find(int32(v))
	}
	return out
}

// checkLabels checks component labels: every edge joins equal labels and
// each label is the minimum vertex id of its component.
func checkLabels(n int, edges func(func(u, v, w int32)), labels []int32) error {
	if len(labels) != n {
		return fmt.Errorf("%d labels for %d vertices", len(labels), n)
	}
	var bad error
	edges(func(u, v, _ int32) {
		if bad == nil && labels[u] != labels[v] {
			bad = fmt.Errorf("edge %d-%d joins labels %d and %d", u, v, labels[u], labels[v])
		}
	})
	if bad != nil {
		return bad
	}
	for v, m := range componentMins(n, edges) {
		if labels[v] != m {
			return fmt.Errorf("vertex %d labelled %d, component minimum is %d", v, labels[v], m)
		}
	}
	return nil
}

// powerIteration is the benchmark's own PageRank: iters pull-style power
// iterations in float64, dangling mass spread uniformly.
func powerIteration(n int, edges func(func(u, v, w int32)), iters int, damping float64) []float64 {
	outDeg := make([]float64, n)
	edges(func(u, _, _ int32) { outDeg[u]++ })
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := range next {
			next[v] = base
		}
		edges(func(u, v, _ int32) { next[v] += damping * rank[u] / outDeg[u] })
		rank, next = next, rank
	}
	return rank
}

// checkRanks compares a rank vector with the benchmark's power iteration
// and checks that the ranks sum to one.
func checkRanks(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks for %d vertices", len(got), len(want))
	}
	var sum float64
	for v, r := range got {
		sum += float64(r)
		if d := math.Abs(float64(r) - want[v]); d > 1e-3*want[v]+1e-7 {
			return fmt.Errorf("vertex %d rank %g, power iteration gives %g", v, r, want[v])
		}
	}
	return checkRankSum(sum)
}

func checkRankSum(sum float64) error {
	if math.Abs(sum-1) > 1e-3 {
		return fmt.Errorf("ranks sum to %g, want 1", sum)
	}
	return nil
}

// pathSummary is what a summary-only served answer reports for BFS/SSSP.
func pathSummary(dist []int32) (maxFinite int32, reached int) {
	for _, d := range dist {
		if d != unreached {
			reached++
			if d > maxFinite {
				maxFinite = d
			}
		}
	}
	return maxFinite, reached
}

// countComponents counts distinct labels.
func countComponents(labels []int32) int {
	seen := map[int32]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// csr returns the model's live edges and weights as a canonical CSR
// (adjacency sorted ascending), the layout the server's compaction yields.
func (m *edgeModel) csr() (*graph.CSR, []int32, error) {
	type we struct {
		e graph.Edge
		w int32
	}
	var all []we
	m.forEdge(func(u, v, w int32) { all = append(all, we{graph.Edge{Src: u, Dst: v}, w}) })
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.Src != all[j].e.Src {
			return all[i].e.Src < all[j].e.Src
		}
		return all[i].e.Dst < all[j].e.Dst
	})
	edges := make([]graph.Edge, len(all))
	ws := make([]int32, len(all))
	for i, x := range all {
		edges[i], ws[i] = x.e, x.w
	}
	g, err := graph.FromEdges(m.n, edges)
	return g, ws, err
}
