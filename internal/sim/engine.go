package sim

import (
	"fmt"
	"runtime"

	"beepmis/internal/graph"
)

// EffectiveShards resolves a shard-count option to the value the
// columnar round loops actually run with: non-positive (the Options
// zero value) means one shard per available CPU, runtime.GOMAXPROCS(0).
// Everything that reports or keys on a shard count — bench records, the
// regression gate — must resolve through here so that "-shards 0" and
// an explicit "-shards GOMAXPROCS" name the same configuration.
func EffectiveShards(shards int) int {
	if shards <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// Engine selects the adjacency representation the simulator's round
// loop runs over. Every engine executes the same algorithm state
// machine and draws node randomness from the same per-node streams, so
// results are bit-identical across engines for a given (graph,
// factory, seed, opts); engines differ only in how fast they deliver
// beeps and how much memory they take.
type Engine uint8

const (
	// EngineAuto picks EngineColumnar when the packed adjacency matrix
	// fits the memory budget and the graph is dense enough for
	// word-parallel delivery to win, EngineSparse otherwise. This is
	// the default. See ResolveEngine.
	EngineAuto Engine = iota
	// EngineBitset is retired: Run and RunCSR reject it. EngineColumnar
	// replaces it, with or without a bulk kernel.
	EngineBitset
	// EngineColumnar runs the round loop over the dense packed
	// adjacency matrix: one OR informs 64 listeners, and propagation is
	// sharded across Options.Shards goroutines. Requires O(n²/8) bytes
	// for the matrix.
	EngineColumnar
	// EngineSparse runs the round loop over the O(n + m) CSR
	// representation instead of the dense matrix: per exchange it walks
	// only the CSR rows of the current emitters into the heard bitset,
	// sharded by destination vertex range across Options.Shards
	// goroutines. Its memory scales with edges rather than n², so it is
	// how million-node graphs run.
	EngineSparse
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineBitset:
		return "bitset"
	case EngineColumnar:
		return "columnar"
	case EngineSparse:
		return "sparse"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine converts a command-line engine name to an Engine. The
// retired names "scalar" and "bitset" are errors that name their
// replacement.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "columnar":
		return EngineColumnar, nil
	case "sparse":
		return EngineSparse, nil
	case "scalar":
		return EngineAuto, fmt.Errorf("sim: engine %q is retired; use \"sparse\" (or auto)", s)
	case "bitset":
		return EngineAuto, fmt.Errorf("sim: engine %q is retired; use \"columnar\" (or auto)", s)
	default:
		return EngineAuto, fmt.Errorf("sim: unknown engine %q (want auto, columnar, or sparse)", s)
	}
}

// DefaultMemoryBudget caps the adjacency-representation memory
// EngineAuto will spend on the dense matrix when Options.MemoryBudget
// is zero: 2 GiB covers a dense matrix up to n = 10⁵ (1.25 GiB) with
// headroom and refuses it in the n ≥ 10⁶ regime, where the matrix alone
// would be 125 GiB — there the CSR representation (O(n + m) bytes)
// takes over via EngineSparse. An explicit engine pin is honoured
// regardless of the budget — the caller knows their machine.
const DefaultMemoryBudget = int64(2) << 30

// ResolveEngine reports the engine a run of g under opts will actually
// execute: the pin itself for a non-auto Options.Engine, and the auto
// heuristic's choice otherwise. Exported so callers (misbench records,
// capacity planners) can observe the selection.
func ResolveEngine(g *graph.Graph, opts Options) Engine {
	if opts.Engine != EngineAuto {
		return opts.Engine
	}
	return ResolveEngineFromCounts(g.N(), g.M(), opts.MemoryBudget)
}

// ResolveEngineFromCounts is the auto heuristic over counts instead of
// a built graph: n vertices, m edges, and the memory budget (<= 0 means
// DefaultMemoryBudget). The rule is one line: the dense matrix if it
// fits the budget and bitsetWorthwhile, else the CSR arrays.
// ResolveEngine delegates here; the scenario compiler's admission
// planning calls it directly with its *expected* edge counts, so the
// two can never drift apart.
func ResolveEngineFromCounts(n, m int, budget int64) Engine {
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	if graph.MatrixBytes(n) <= budget && bitsetWorthwhile(n, m) {
		return EngineColumnar
	}
	return EngineSparse
}

// bitsetWorthwhile is EngineAuto's density heuristic. Per emitting
// node a matrix exchange costs ⌈n/64⌉ word ORs against deg(v) random
// writes for a CSR row walk, so the break-even density is an average
// degree of about n/64; word ops are cheaper than scattered writes, so
// the threshold takes half that. Tiny graphs always qualify — the
// matrix is a few cache lines. (Whether the matrix fits the memory
// budget is the resolver's job, not this predicate's.)
func bitsetWorthwhile(n, m int) bool {
	if n == 0 {
		return false
	}
	if n <= 1024 {
		return true
	}
	words := float64((n + 63) / 64)
	return 2*float64(m)/float64(n) >= words/2
}
