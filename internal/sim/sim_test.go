package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

func feedbackFactory(t testing.TB) beep.Factory {
	t.Helper()
	f, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunFeedbackProducesMIS(t *testing.T) {
	src := rng.New(1)
	graphs := map[string]*graph.Graph{
		"gnp-half":   graph.GNP(150, 0.5, src),
		"gnp-sparse": graph.GNP(300, 0.01, src),
		"complete":   graph.Complete(60),
		"grid":       graph.Grid(10, 12),
		"torus":      graph.Torus(8, 8),
		"path":       graph.Path(40),
		"star":       graph.Star(50),
		"cliques":    graph.CliqueFamily(1000),
		"tree":       graph.RandomTree(120, src),
		"empty":      graph.Empty(20),
		"zero":       graph.Empty(0),
	}
	for name, g := range graphs {
		res, err := Run(g, feedbackFactory(t), rng.New(42), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Terminated {
			t.Fatalf("%s: did not terminate", name)
		}
		if err := graph.VerifyMIS(g, res.InMIS); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunAllBeepingAlgorithmsProduceMIS(t *testing.T) {
	// The fixed-probability strawman with p = 1/2 does not terminate on
	// dense graphs (that inability is the whole point of adaptive
	// schedules), so it is exercised on a bounded-degree grid instead.
	src := rng.New(2)
	dense := graph.GNP(120, 0.5, src)
	grid := graph.Grid(12, 12)
	for _, name := range mis.Names() {
		f, err := mis.NewFactory(mis.Spec{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		g := dense
		if name == mis.NameFixed {
			g = grid
		}
		res, err := Run(g, f, rng.New(7), Options{MaxRounds: 200000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := graph.VerifyMIS(g, res.InMIS); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	g := graph.GNP(100, 0.5, rng.New(3))
	a, err := Run(g, feedbackFactory(t), rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, feedbackFactory(t), rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.TotalBeeps != b.TotalBeeps {
		t.Fatalf("same seed diverged: rounds %d/%d beeps %d/%d", a.Rounds, b.Rounds, a.TotalBeeps, b.TotalBeeps)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] || a.Beeps[v] != b.Beeps[v] {
			t.Fatalf("node %d differs across identical runs", v)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	g := graph.GNP(100, 0.5, rng.New(4))
	a, err := Run(g, feedbackFactory(t), rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, feedbackFactory(t), rng.New(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			same = false
			break
		}
	}
	if same && a.Rounds == b.Rounds && a.TotalBeeps == b.TotalBeeps {
		t.Fatal("different seeds produced identical executions — suspicious")
	}
}

func TestRunStatesConsistent(t *testing.T) {
	g := graph.GNP(80, 0.3, rng.New(6))
	res, err := Run(g, feedbackFactory(t), rng.New(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, st := range res.States {
		switch st {
		case beep.StateInMIS:
			if !res.InMIS[v] {
				t.Fatalf("node %d InMIS state but not in set", v)
			}
		case beep.StateDominated:
			if res.InMIS[v] {
				t.Fatalf("node %d dominated but in set", v)
			}
		default:
			t.Fatalf("node %d final state %v", v, st)
		}
	}
}

func TestRunSingleNodeJoinsAlone(t *testing.T) {
	res, err := Run(graph.Empty(1), feedbackFactory(t), rng.New(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InMIS[0] {
		t.Fatal("lone node must join the MIS")
	}
	if res.Beeps[0] < 1 {
		t.Fatal("joining requires at least one beep")
	}
	if res.JoinAnnouncements != 0 {
		t.Fatal("degree-0 node should not announce")
	}
}

func TestRunMaxRoundsError(t *testing.T) {
	// On K_40 with a fixed p = 1/2 schedule, a unique beeper occurs with
	// probability 40/2^40 per round: effectively never within 200
	// rounds, so the cap must trigger.
	f, err := mis.NewFixedProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(graph.Complete(40), f, rng.New(11), Options{MaxRounds: 200})
	if !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("err = %v, want ErrTooManyRounds", err)
	}
	if res == nil || res.Terminated {
		t.Fatal("partial result expected with Terminated=false")
	}
	if res.Rounds != 200 {
		t.Fatalf("rounds = %d, want 200", res.Rounds)
	}
}

func TestRunBeepLossValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := Run(graph.Empty(1), feedbackFactory(t), rng.New(1), Options{BeepLoss: bad}); err == nil {
			t.Fatalf("BeepLoss %v accepted", bad)
		}
	}
}

func TestRunBeepLossStillTerminates(t *testing.T) {
	g := graph.GNP(100, 0.5, rng.New(12))
	res, err := Run(g, feedbackFactory(t), rng.New(13), Options{BeepLoss: 0.2, MaxRounds: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("lossy run did not terminate")
	}
	// Loss can break independence but never maximality-by-domination
	// bookkeeping; every node must still end in a terminal state.
	for v, st := range res.States {
		if !st.Terminal() {
			t.Fatalf("node %d non-terminal under loss", v)
		}
	}
}

func TestRunBeepLossPreservesNodeStreams(t *testing.T) {
	// The fault stream is separate from node streams, so a loss-free run
	// and the loss parameter being plumbed differently must not change
	// the zero-loss execution.
	g := graph.GNP(60, 0.4, rng.New(14))
	a, err := Run(g, feedbackFactory(t), rng.New(15), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, feedbackFactory(t), rng.New(15), Options{BeepLoss: 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.TotalBeeps != b.TotalBeeps {
		t.Fatal("zero BeepLoss changed the execution")
	}
}

func TestRunCrashInjection(t *testing.T) {
	g := graph.Star(20)
	// Crash the hub immediately: the leaves become mutually independent
	// and must all join.
	res, err := Run(g, feedbackFactory(t), rng.New(16), Options{
		CrashAtRound: map[int][]int{1: {0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.States[0] != beep.StateCrashed {
		t.Fatalf("hub state %v, want crashed", res.States[0])
	}
	for v := 1; v < 20; v++ {
		if !res.InMIS[v] {
			t.Fatalf("leaf %d should join after hub crash", v)
		}
	}
}

// TestRunCrashScheduleValidation pins the up-front rejection of
// malformed crash schedules. These used to be skipped silently, which
// made fault-injection typos indistinguishable from robustness.
func TestRunCrashScheduleValidation(t *testing.T) {
	// Every message names the offending node id and round — the range
	// case always did; the round-validity and duplicate cases used to
	// leave out the node, making the typo hunt start from scratch.
	for _, tc := range []struct {
		name    string
		crashes map[int][]int
		wantErr []string // every substring must appear
	}{
		{"negative-node", map[int][]int{1: {-5}}, []string{"outside [0, 2)", "node -5", "[1]"}},
		{"node-too-large", map[int][]int{1: {99}}, []string{"outside [0, 2)", "node 99", "[1]"}},
		{"round-zero", map[int][]int{0: {1}}, []string{"1-based", "round 0", "node 1"}},
		{"round-negative", map[int][]int{-3: {0}}, []string{"1-based", "round -3", "node 0"}},
		{"double-crash-same-round", map[int][]int{1: {0, 0}}, []string{"node 0", "twice", "CrashAtRound[1]"}},
		{"double-crash-across-rounds", map[int][]int{1: {0}, 3: {0}}, []string{"node 0", "crash twice", "rounds 1 and 3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(graph.Empty(2), feedbackFactory(t), rng.New(17), Options{
				CrashAtRound: tc.crashes,
			})
			if err == nil {
				t.Fatalf("schedule %v accepted", tc.crashes)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("got err %q, want it to contain %q", err, want)
				}
			}
		})
	}
	// The first reported problem is deterministic: rounds are visited
	// ascending, so the round-2 typo wins over the round-7 one.
	for i := 0; i < 5; i++ {
		err := ValidateCrashes(10, map[int][]int{7: {-1}, 2: {55}})
		if err == nil || !strings.Contains(err.Error(), "CrashAtRound[2]") {
			t.Fatalf("iteration %d: first error not from the lowest round: %v", i, err)
		}
	}
	// A valid schedule — including a node that terminates before its
	// crash round, which is a legitimate no-op — still runs.
	res, err := Run(graph.Empty(2), feedbackFactory(t), rng.New(17), Options{
		CrashAtRound: map[int][]int{1: {0}, 500: {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
}

func TestRunTraceHook(t *testing.T) {
	g := graph.GNP(40, 0.5, rng.New(18))
	rounds := 0
	lastActive := -1
	res, err := Run(g, feedbackFactory(t), rng.New(19), Options{
		OnRound: func(s Snapshot) {
			rounds++
			if s.Round != rounds {
				t.Fatalf("round numbering: got %d, want %d", s.Round, rounds)
			}
			if len(s.States) != g.N() || len(s.Beeped) != g.N() {
				t.Fatal("snapshot slice lengths wrong")
			}
			lastActive = s.Active
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Fatalf("hook called %d times, rounds = %d", rounds, res.Rounds)
	}
	if lastActive != 0 {
		t.Fatalf("final snapshot active = %d, want 0", lastActive)
	}
}

func TestRunBeepAccounting(t *testing.T) {
	g := graph.GNP(50, 0.5, rng.New(20))
	res, err := Run(g, feedbackFactory(t), rng.New(21), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, b := range res.Beeps {
		sum += b
	}
	if sum != res.TotalBeeps {
		t.Fatalf("TotalBeeps %d != sum %d", res.TotalBeeps, sum)
	}
	if got := res.MeanBeepsPerNode(); got != float64(sum)/50 {
		t.Fatalf("MeanBeepsPerNode = %v", got)
	}
	// Every MIS member beeped at least once (the joining beep).
	for v, in := range res.InMIS {
		if in && res.Beeps[v] == 0 {
			t.Fatalf("MIS node %d never beeped", v)
		}
	}
}

func TestRunPropertyRandomGraphsAllAlgorithms(t *testing.T) {
	src := rng.New(22)
	f := func(nSeed, pSeed, algoPick, seed uint8) bool {
		n := int(nSeed%60) + 1
		p := float64(pSeed%10) / 10
		g := graph.GNP(n, p, src)
		// The fixed schedule legitimately stalls on dense graphs; the
		// property covers the three adaptive/swept schedules.
		names := []string{mis.NameFeedback, mis.NameGlobalSweep, mis.NameAfek}
		factory, err := mis.NewFactory(mis.Spec{Name: names[int(algoPick)%len(names)]})
		if err != nil {
			return false
		}
		res, err := Run(g, factory, rng.New(uint64(seed)), Options{MaxRounds: 500000})
		if err != nil {
			return false
		}
		return graph.VerifyMIS(g, res.InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBeepsEmptyResult(t *testing.T) {
	var r Result
	if r.MeanBeepsPerNode() != 0 {
		t.Fatal("empty result mean beeps should be 0")
	}
}
