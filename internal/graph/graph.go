// Package graph provides the undirected-graph substrate used throughout the
// reproduction: a compact adjacency representation, the generators the
// paper's evaluation needs (Erdős–Rényi G(n,p), rectangular grids, the
// Theorem 1 union-of-cliques family), additional families for the examples
// (unit-disk, Barabási–Albert, Watts–Strogatz, trees, rings, stars),
// structural operations, serialization, and MIS verification.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Graph is a simple undirected graph on vertices 0..N()-1. The zero value
// is an empty graph with no vertices. Graph is immutable after Build and
// safe for concurrent readers.
type Graph struct {
	// adj[v] is the sorted neighbour list of v. Stored as int32 to halve
	// memory on large simulations; vertex counts here never exceed 2^31.
	adj [][]int32
	m   int // number of edges

	// mat is the lazily built packed adjacency-matrix form used by the
	// columnar simulation engine; matOnce guards its one-time construction
	// so concurrent readers stay safe.
	matOnce sync.Once
	mat     *AdjacencyMatrix

	// csr is the lazily built compressed-sparse-row form used by the
	// sparse simulation engine, with the same once-guarded discipline.
	csrOnce sync.Once
	csr     *CSR
}

// ErrVertexRange indicates a vertex index outside [0, N).
var ErrVertexRange = errors.New("graph: vertex out of range")

// Builder accumulates edges and produces an immutable Graph. Self-loops
// and out-of-range endpoints are rejected at AddEdge time; duplicate
// edges are accepted and removed by Build, so the finished graph is
// simple either way.
type Builder struct {
	n   int
	adj [][]int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, adj: make([][]int32, n)}
}

// AddEdge inserts the undirected edge {u, v}. It returns an error for
// self-loops or out-of-range endpoints. Duplicate insertions are
// accepted here and deduplicated by Build (a linear duplicate check per
// insert would be quadratic on dense graphs), so generators can be
// sloppy about multi-edges; the built graph's M() counts each edge
// once.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrVertexRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	b.adj[u] = append(b.adj[u], int32(v))
	b.adj[v] = append(b.adj[v], int32(u))
	return nil
}

// Build finalizes the builder into an immutable Graph, sorting adjacency
// lists and removing duplicate edges. The builder must not be used after
// Build.
func (b *Builder) Build() *Graph {
	m := 0
	for v := range b.adj {
		lst := b.adj[v]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		// Dedupe in place.
		out := lst[:0]
		var prev int32 = -1
		for _, w := range lst {
			if w != prev {
				out = append(out, w)
				prev = w
			}
		}
		b.adj[v] = out
		m += len(out)
	}
	g := &Graph{adj: b.adj, m: m / 2}
	b.adj = nil
	return g
}

// Empty returns a graph with n vertices and no edges.
func Empty(n int) *Graph {
	return NewBuilder(n).Build()
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbour list of v. The returned slice is
// shared with the graph's internal storage and must not be modified; this
// is the hot path of the simulator, so we avoid a defensive copy and
// enforce the contract by documentation, mirroring the standard library's
// bytes.Buffer.Bytes.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	lst := g.adj[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	return i < len(lst) && lst[i] == int32(v)
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := len(g.adj[0])
	for v := 1; v < len(g.adj); v++ {
		if d := len(g.adj[v]); d < min {
			min = d
		}
	}
	return min
}

// AvgDegree returns the average degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Edges returns all edges as [2]int pairs with u < v, sorted
// lexicographically. It allocates; intended for I/O and tests, not the
// simulation hot path.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if int32(u) < w {
				edges = append(edges, [2]int{u, int(w)})
			}
		}
	}
	return edges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	adj := make([][]int32, len(g.adj))
	for v := range g.adj {
		adj[v] = append([]int32(nil), g.adj[v]...)
	}
	return &Graph{adj: adj, m: g.m}
}

// Validate checks internal invariants: sorted, deduplicated, symmetric
// adjacency with a consistent edge count. Generators are tested through
// this; it is O(m log m).
func (g *Graph) Validate() error {
	count := 0
	for v := range g.adj {
		lst := g.adj[v]
		for i, w := range lst {
			if w < 0 || int(w) >= len(g.adj) {
				return fmt.Errorf("%w: adj[%d] contains %d", ErrVertexRange, v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && lst[i-1] >= w {
				return fmt.Errorf("graph: adj[%d] not strictly sorted at index %d", v, i)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, w)
			}
		}
		count += len(lst)
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency total %d", g.m, count)
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d maxdeg=%d}", g.N(), g.M(), g.MaxDegree())
}
