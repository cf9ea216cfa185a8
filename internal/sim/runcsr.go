package sim

import (
	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// topology is the graph view the packed round loop actually reads at
// setup: a node count, per-node degrees, and the maximum degree. Both
// *graph.Graph and *graph.CSR satisfy it, which is what lets the
// sparse engine run a direct-to-CSR graph without a backing Graph —
// everything else the loop touches goes through the bulkPropagator
// (or, for a lossy first exchange, the CSR's own rows).
type topology interface {
	N() int
	Degree(v int) int
	MaxDegree() int
}

var (
	_ topology = (*graph.Graph)(nil)
	_ topology = (*graph.CSR)(nil)
)

// RunCSR simulates factory's algorithm on a graph given directly in
// compressed-sparse-row form — the construction target of the
// direct-to-CSR pipeline (graph.CSRBuilder, the RMAT/configmodel
// generators, the file loaders). When the run resolves to the sparse
// engine (an explicit EngineSparse pin, or EngineAuto on a graph too
// sparse or too large for the dense matrix), the round loop executes
// over c itself and no adjacency-Graph is ever materialised. The
// columnar engine needs matrix rows, which it builds from
// graph.FromCSR(c) — a zero-copy view whose adjacency slices alias c's
// storage, so that path allocates only one slice header per vertex
// beyond the matrix.
//
// Results are bit-identical to Run(graph.FromCSR(c), …) with the same
// arguments, for every engine and shard count.
func RunCSR(c *graph.CSR, factory beep.Factory, master *rng.Source, opts Options) (*Result, error) {
	cfg, err := prepare(c, c.M(), master, opts)
	if err != nil {
		return nil, err
	}
	if cfg.engine == EngineSparse {
		return runColumnar(c, master, cfg, c, factory)
	}
	g := graph.FromCSR(c)
	return runColumnar(g, master, cfg, g.Matrix(), factory)
}
