// Package determinism implements the misvet check that engine and
// canonicalization packages stay bit-reproducible: results there must
// be pure functions of (graph, seed, spec), which the engine
// equivalence matrices assert at runtime — but only for the inputs
// they happen to run. This analyzer forbids the three constructs that
// historically smuggle nondeterminism into such code:
//
//   - time.Now / time.Since: wall-clock reads. Telemetry that only
//     measures (never steers) is the legitimate exception and carries
//     a //misvet:allow(determinism) justification.
//   - global math/rand: draws from a process-global, source-order- and
//     goroutine-schedule-dependent stream instead of the repo's
//     per-(unit,trial,slot) rng streams.
//   - range over a map: iteration order is randomized by the runtime.
//     The collect-keys-then-sort idiom is recognized and allowed; an
//     iteration whose body is genuinely order-insensitive carries a
//     suppression saying why.
package determinism

import (
	"go/ast"
	"go/types"

	"beepmis/internal/analysis"
)

// DefaultScope lists the packages whose results must be pure
// functions of their inputs: the simulator's round loop and
// kernels, the fault layer, graph construction, and scenario
// canonicalization (whose output feeds the content hash).
var DefaultScope = []string{
	"beepmis/internal/sim",
	"beepmis/internal/beep",
	"beepmis/internal/fault",
	"beepmis/internal/graph",
	"beepmis/internal/mis",
	"beepmis/internal/scenario",
}

// New returns the determinism analyzer restricted to the given import
// paths (DefaultScope when none are given).
func New(scope ...string) *analysis.Analyzer {
	if len(scope) == 0 {
		scope = DefaultScope
	}
	inScope := make(map[string]bool, len(scope))
	for _, s := range scope {
		inScope[s] = true
	}
	return &analysis.Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, global math/rand, and unsorted map iteration in engine packages",
		Run: func(pass *analysis.Pass) error {
			if !inScope[pass.Pkg.Path()] {
				return nil
			}
			run(pass)
			return nil
		},
	}
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			checkSelector(pass, n)
		case *ast.RangeStmt:
			checkRange(pass, fd, n)
		}
		return true
	})
}

// checkSelector flags qualified references to time.Now/time.Since and
// to anything exported by math/rand or math/rand/v2.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Only package-qualified references (time.Now), not field or
	// method selections on values.
	if id, ok := sel.X.(*ast.Ident); !ok {
		return
	} else if _, ok := pass.TypesInfo.Uses[id].(*types.PkgName); !ok {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if name := obj.Name(); name == "Now" || name == "Since" {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock in an engine package; results must be pure functions of (graph, seed, spec)", name)
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(sel.Pos(), "global %s.%s bypasses the per-(unit,trial,slot) streams of beepmis/internal/rng", obj.Pkg().Path(), obj.Name())
	}
}

// checkRange flags `range` over a map unless the loop is the
// collect-keys-then-sort idiom: a body that only appends the key to a
// slice which the enclosing function later passes to a sort call.
func checkRange(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if keysSortedLater(pass, fd, rs) {
		return
	}
	pass.Reportf(rs.Pos(), "map iteration order is nondeterministic in an engine package; collect and sort the keys first, or justify with //misvet:allow(determinism)")
}

// keysSortedLater recognizes
//
//	for k := range m { keys = append(keys, k) }
//	...
//	sort.Ints(keys)            (or any sort./slices. sort call)
//
// within one function.
func keysSortedLater(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	if rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || arg0.Name != dst.Name {
		return false
	}
	if arg1, ok := call.Args[1].(*ast.Ident); !ok || pass.TypesInfo.Uses[arg1] != pass.TypesInfo.ObjectOf(key) {
		return false
	}
	slice := pass.TypesInfo.ObjectOf(dst)
	if slice == nil {
		return false
	}
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[arg] == slice {
			sorted = true
		}
		return true
	})
	return sorted
}
