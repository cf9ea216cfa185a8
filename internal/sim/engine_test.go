package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// engineRun is one engine configuration of the equivalence matrix.
type engineRun struct {
	name string
	res  *Result
}

// runAllEngines executes the same configuration on the scalar oracle
// and on both engines — each driving the per-node automata through the
// adapter at shard counts 1 and 3, and (when the algorithm has a
// kernel) running the kernel at shard counts 1, 3, and GOMAXPROCS — and
// returns the labelled results. The first entry is the oracle.
func runAllEngines(t *testing.T, g *graph.Graph, spec mis.Spec, seed uint64, opts Options) []engineRun {
	t.Helper()
	return runMatrix(t, g, spec, seed, opts, false)
}

// runMatrix is runAllEngines; with capped set, a run that ends in
// ErrTooManyRounds contributes its partial Result, which must match
// like any other.
func runMatrix(t *testing.T, g *graph.Graph, spec mis.Spec, seed uint64, opts Options, capped bool) []engineRun {
	t.Helper()
	factory, bulk, err := mis.NewFactories(spec)
	if err != nil {
		t.Fatal(err)
	}
	var runs []engineRun
	record := func(name string, res *Result, err error) {
		if err != nil && !(capped && errors.Is(err, ErrTooManyRounds)) {
			t.Fatalf("%s: %v", name, err)
		}
		runs = append(runs, engineRun{name, res})
	}
	res, err := runOracle(g, factory, rng.New(seed), opts)
	record("oracle", res, err)
	exec := func(name string) {
		res, err := Run(g, factory, rng.New(seed), opts)
		record(name, res, err)
	}
	for _, engine := range []Engine{EngineColumnar, EngineSparse} {
		opts.Engine = engine
		for _, shards := range []int{1, 3} {
			opts.Shards = shards
			exec(fmt.Sprintf("%v-pernode/shards=%d", engine, shards))
		}
	}
	if bulk != nil {
		opts.Bulk = bulk
		for _, engine := range []Engine{EngineColumnar, EngineSparse} {
			opts.Engine = engine
			for _, shards := range []int{1, 3, 0} {
				opts.Shards = shards
				exec(fmt.Sprintf("%v/shards=%d", engine, shards))
			}
		}
	}
	return runs
}

// runFunc is the signature Run and runOracle share.
type runFunc func(g *graph.Graph, factory beep.Factory, master *rng.Source, opts Options) (*Result, error)

// namedRunner is the oracle or one engine configuration.
type namedRunner struct {
	name string
	run  runFunc
}

// runners returns the oracle followed by both engines, each with the
// per-node adapter and with bulk — for tests that check a property of
// every configuration rather than equivalence alone.
func runners(bulk beep.BulkFactory) []namedRunner {
	rs := []namedRunner{{"oracle", runOracle}}
	for _, engine := range []Engine{EngineColumnar, EngineSparse} {
		for _, b := range []beep.BulkFactory{nil, bulk} {
			rs = append(rs, namedRunner{fmt.Sprintf("%v/bulk=%v", engine, b != nil), func(g *graph.Graph, f beep.Factory, m *rng.Source, opts Options) (*Result, error) {
				opts.Engine, opts.Bulk = engine, b
				return Run(g, f, m, opts)
			}})
		}
	}
	return rs
}

// assertAllIdentical checks every run of an equivalence matrix against
// the first (oracle) entry.
func assertAllIdentical(t *testing.T, runs []engineRun) {
	t.Helper()
	for _, run := range runs[1:] {
		assertIdenticalNamed(t, runs[0].res, run.res, runs[0].name, run.name)
	}
}

// assertIdenticalNamed fails unless the two results are equal in every
// field; the field-by-field checks name the first difference.
func assertIdenticalNamed(t *testing.T, a, b *Result, aName, bName string) {
	t.Helper()
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %s %d, %s %d", aName, a.Rounds, bName, b.Rounds)
	}
	if a.TotalBeeps != b.TotalBeeps {
		t.Fatalf("total beeps differ: %s %d, %s %d", aName, a.TotalBeeps, bName, b.TotalBeeps)
	}
	if a.JoinAnnouncements != b.JoinAnnouncements {
		t.Fatalf("join announcements differ: %s %d, %s %d",
			aName, a.JoinAnnouncements, bName, b.JoinAnnouncements)
	}
	if a.PersistentBeeps != b.PersistentBeeps {
		t.Fatalf("persistent beeps differ: %s %d, %s %d",
			aName, a.PersistentBeeps, bName, b.PersistentBeeps)
	}
	if a.Terminated != b.Terminated {
		t.Fatalf("termination differs: %s %v, %s %v", aName, a.Terminated, bName, b.Terminated)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatalf("MIS membership differs at vertex %d (%s vs %s)", v, aName, bName)
		}
		if a.States[v] != b.States[v] {
			t.Fatalf("state differs at vertex %d: %s %v, %s %v",
				v, aName, a.States[v], bName, b.States[v])
		}
		if a.Beeps[v] != b.Beeps[v] {
			t.Fatalf("beep count differs at vertex %d: %s %d, %s %d",
				v, aName, a.Beeps[v], bName, b.Beeps[v])
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ: %s %+v, %s %+v", aName, a, bName, b)
	}
}

func TestEngineEquivalencePureModel(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-200", graph.GNP(200, 0.5, rng.New(1))},
		{"gnp-sparse-300", graph.GNP(300, 0.02, rng.New(2))},
		{"grid-13x13", graph.Grid(13, 13)},
		{"complete-100", graph.Complete(100)},
		{"cliquefamily-343", graph.CliqueFamily(343)},
		{"unitdisk-250", graph.UnitDisk(250, 0.12, rng.New(3))},
		{"path-65", graph.Path(65)},
		{"isolated-70", graph.Empty(70)},
	}
	specs := []mis.Spec{
		{Name: mis.NameFeedback},
		{Name: mis.NameGlobalSweep},
		{Name: mis.NameAfek},
	}
	for _, tg := range graphs {
		for _, spec := range specs {
			for seed := uint64(0); seed < 3; seed++ {
				runs := runAllEngines(t, tg.g, spec, seed, Options{})
				assertAllIdentical(t, runs)
				if err := graph.VerifyMIS(tg.g, runs[0].res.InMIS); err != nil {
					t.Fatalf("%s/%s/seed=%d: invalid MIS: %v", tg.name, spec.Name, seed, err)
				}
			}
		}
	}
}

// TestEngineEquivalenceWakeup covers the persistent-beep path: staggered
// wake-ups make MIS members keep beeping, which both engines must
// deliver identically.
func TestEngineEquivalenceWakeup(t *testing.T) {
	g := graph.GNP(150, 0.3, rng.New(5))
	wakeSrc := rng.New(99)
	wake := make([]int, g.N())
	for v := range wake {
		wake[v] = 1 + wakeSrc.Intn(20)
	}
	for seed := uint64(0); seed < 3; seed++ {
		runs := runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, seed, Options{WakeAt: wake})
		assertAllIdentical(t, runs)
		if runs[0].res.PersistentBeeps == 0 {
			t.Fatal("wake-up run produced no persistent beeps; test is not covering the persist path")
		}
	}
}

// TestEngineEquivalenceCrashes covers mid-run node crashes.
func TestEngineEquivalenceCrashes(t *testing.T) {
	g := graph.GNP(120, 0.4, rng.New(6))
	crashes := map[int][]int{2: {0, 5, 17}, 4: {40, 41}}
	assertAllIdentical(t, runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 7, Options{CrashAtRound: crashes}))
}

// TestEngineAutoMatchesForced pins the auto engine, with no kernel
// supplied, to the same results as every forced configuration.
func TestEngineAutoMatchesForced(t *testing.T) {
	g := graph.GNP(180, 0.5, rng.New(8))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Run(g, factory, rng.New(11), Options{Engine: EngineAuto})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 11, Options{}) {
		assertIdenticalNamed(t, auto, run.res, "auto", run.name)
	}
}

// TestEngineAutoUpgradesToColumnar pins the auto heuristic: with a bulk
// kernel supplied, auto takes the columnar engine on bitset-worthwhile
// graphs — and its results stay identical to every other engine.
func TestEngineAutoUpgradesToColumnar(t *testing.T) {
	g := graph.GNP(180, 0.5, rng.New(8))
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Engine: EngineAuto, Bulk: bulk}
	if got := ResolveEngine(g, opts); got != EngineColumnar {
		t.Fatalf("ResolveEngine = %v, want columnar", got)
	}
	auto, err := Run(g, factory, rng.New(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 11, Options{}) {
		assertIdenticalNamed(t, auto, run.res, "auto+bulk", run.name)
	}
}

// TestEngineColumnarAcceptsNilBulk: a columnar pin without a kernel
// runs the per-node automata through the adapter, exactly like the
// oracle — including for the kernel-less fixed-probability strawman.
// Shards misuse is still rejected.
func TestEngineColumnarAcceptsNilBulk(t *testing.T) {
	g := graph.GNP(50, 0.5, rng.New(1))
	if _, err := Run(g, nil, rng.New(1), Options{Shards: -1}); err == nil {
		t.Fatal("negative Shards was silently accepted")
	}
	// The fixed-probability strawman has no kernel: NewFactories returns
	// a nil bulk.
	fixedFactory, fixedBulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFixed, FixedP: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if fixedBulk != nil {
		t.Fatal("fixed-probability algorithm unexpectedly has a bulk kernel; update this test")
	}
	opts := Options{MaxRounds: 200}
	want, wantErr := runOracle(g, fixedFactory, rng.New(1), opts)
	for _, engine := range []Engine{EngineAuto, EngineColumnar} {
		opts.Engine = engine
		got, err := Run(g, fixedFactory, rng.New(1), opts)
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrTooManyRounds)) {
			t.Fatalf("%v with nil bulk: err %v, oracle err %v", engine, err, wantErr)
		}
		assertIdenticalNamed(t, want, got, "oracle", engine.String())
	}
}

// TestEngineBitsetRejectsBeepLoss: EngineBitset stays declared but no
// longer runs, with or without BeepLoss, and an undeclared value is an
// unknown engine. Per-edge BeepLoss runs on both remaining engines.
func TestEngineBitsetRejectsBeepLoss(t *testing.T) {
	g := graph.GNP(50, 0.5, rng.New(1))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Engine: EngineBitset}, {Engine: EngineBitset, BeepLoss: 0.1}} {
		if _, err := Run(g, factory, rng.New(1), opts); err == nil || !strings.Contains(err.Error(), "retired") {
			t.Fatalf("Run %+v: got err %v, want retired-engine rejection", opts, err)
		}
		if _, err := RunCSR(g.CSR(), factory, rng.New(1), opts); err == nil || !strings.Contains(err.Error(), "retired") {
			t.Fatalf("RunCSR %+v: got err %v, want retired-engine rejection", opts, err)
		}
	}
	if _, err := Run(g, factory, rng.New(1), Options{Engine: EngineSparse + 1}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("undeclared engine: got err %v, want unknown-engine rejection", err)
	}
	for _, engine := range []Engine{EngineAuto, EngineColumnar, EngineSparse} {
		if _, err := Run(g, factory, rng.New(1), Options{Engine: engine, BeepLoss: 0.1}); err != nil {
			t.Fatalf("%v engine with loss: %v", engine, err)
		}
	}
}

func TestBitsetWorthwhile(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"empty", graph.Empty(0), false},
		{"tiny-sparse", graph.Path(100), true},     // ≤1024 vertices: always
		{"small-dense", graph.Complete(800), true}, // ≤1024 vertices: always
		{"mid-dense", graph.GNP(4000, 0.5, rng.New(1)), true},
		{"mid-sparse", graph.GNP(5000, 0.001, rng.New(2)), false}, // deg ≈ 5 « words/2 ≈ 39
	}
	for _, tc := range tests {
		if got := bitsetWorthwhile(tc.g.N(), tc.g.M()); got != tc.want {
			t.Errorf("%s: bitsetWorthwhile = %v, want %v (n=%d avgdeg=%.1f)",
				tc.name, got, tc.want, tc.g.N(), tc.g.AvgDegree())
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"auto", EngineAuto, true},
		{"", EngineAuto, true},
		{"columnar", EngineColumnar, true},
		{"sparse", EngineSparse, true},
		{"scalar", EngineAuto, false},
		{"bitset", EngineAuto, false},
		{"simd", EngineAuto, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	// Retired names fail with an error naming the replacement.
	for name, replacement := range map[string]string{"scalar": "sparse", "bitset": "columnar"} {
		if _, err := ParseEngine(name); err == nil || !strings.Contains(err.Error(), replacement) {
			t.Errorf("ParseEngine(%q) = %v; want an error naming %q", name, err, replacement)
		}
	}
	for _, e := range []Engine{EngineAuto, EngineColumnar, EngineSparse} {
		rt, err := ParseEngine(e.String())
		if err != nil || rt != e {
			t.Errorf("round-trip %v failed: %v, %v", e, rt, err)
		}
	}
}

// TestResolveEngine pins the auto heuristic's one rule: the dense
// matrix when it fits the budget and density pays, the CSR arrays
// otherwise. Neither a kernel nor BeepLoss changes the choice.
func TestResolveEngine(t *testing.T) {
	_, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	dense := graph.GNP(2000, 0.5, rng.New(1))    // matrix 512 KB, dense
	sparse := graph.GNP(5000, 0.001, rng.New(2)) // deg ≈ 5 « words/2
	tests := []struct {
		name string
		g    *graph.Graph
		opts Options
		want Engine
	}{
		{"pin wins", dense, Options{Engine: EngineSparse}, EngineSparse},
		{"dense no kernel", dense, Options{}, EngineColumnar},
		{"dense kernel", dense, Options{Bulk: bulk}, EngineColumnar},
		{"dense with loss", dense, Options{BeepLoss: 0.1}, EngineColumnar},
		{"sparse under budget", sparse, Options{}, EngineSparse},
		{"dense over matrix budget", dense, Options{MemoryBudget: 1 << 18}, EngineSparse},
		// A budget below even the CSR bytes still takes the CSR: the
		// budget only gates the matrix.
		{"over csr budget", sparse, Options{MemoryBudget: 1 << 10}, EngineSparse},
	}
	for _, tc := range tests {
		if got := ResolveEngine(tc.g, tc.opts); got != tc.want {
			t.Errorf("%s: ResolveEngine = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEngineAutoRoutesSparseOverBudget runs the over-budget auto path
// end to end: the run must succeed without ever building the dense
// matrix and stay bit-identical to the oracle.
func TestEngineAutoRoutesSparseOverBudget(t *testing.T) {
	g := graph.GNP(3000, 0.004, rng.New(3))
	opts := Options{MemoryBudget: 1 << 19} // matrix would need 1.1 MB
	if got := ResolveEngine(g, opts); got != EngineSparse {
		t.Fatalf("ResolveEngine = %v, want sparse (matrix %d B over budget %d)",
			got, graph.MatrixBytes(g.N()), opts.MemoryBudget)
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	opts.Bulk = bulk
	auto, err := Run(g, factory, rng.New(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := runOracle(g, factory, rng.New(11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalNamed(t, oracle, auto, "oracle", "auto-sparse")
}

// TestEnginesUnderTraceHook checks the per-round snapshots agree
// between the oracle and every engine, with and without a kernel — not
// just the final results.
func TestEnginesUnderTraceHook(t *testing.T) {
	g := graph.GNP(90, 0.3, rng.New(4))
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	type roundView struct {
		beeped []bool
		states []beep.State
		probs  []float64
		active int
	}
	capture := func(run runFunc) []roundView {
		var views []roundView
		var opts Options
		opts.OnRound = func(s Snapshot) {
			views = append(views, roundView{
				beeped: append([]bool(nil), s.Beeped...),
				states: append([]beep.State(nil), s.States...),
				probs:  append([]float64(nil), s.Probabilities...),
				active: s.Active,
			})
		}
		if _, err := run(g, factory, rng.New(21), opts); err != nil {
			t.Fatal(err)
		}
		return views
	}
	rs := runners(bulk)
	want := capture(rs[0].run)
	for _, r := range rs[1:] {
		name := r.name
		got := capture(r.run)
		if len(want) != len(got) {
			t.Fatalf("round counts differ: oracle %d, %s %d", len(want), name, len(got))
		}
		for r := range want {
			if want[r].active != got[r].active {
				t.Fatalf("round %d active differs: oracle %d, %s %d", r+1, want[r].active, name, got[r].active)
			}
			for v := range want[r].beeped {
				if want[r].beeped[v] != got[r].beeped[v] || want[r].states[v] != got[r].states[v] {
					t.Fatalf("round %d vertex %d snapshot differs (oracle vs %s)", r+1, v, name)
				}
				if want[r].probs[v] != got[r].probs[v] {
					t.Fatalf("round %d vertex %d probability differs: oracle %v, %s %v",
						r+1, v, want[r].probs[v], name, got[r].probs[v])
				}
			}
		}
	}
}
