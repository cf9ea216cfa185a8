package experiment

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"beepmis/internal/sim"
)

func TestForTrialsRunsEveryTrial(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var ran [50]atomic.Int32
		err := ForTrials(workers, 50, func(trial int) error {
			ran[trial].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: trial %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForTrialsErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	err := ForTrials(1, 10, func(trial int) error {
		if trial >= 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if err := ForTrials(4, 0, func(int) error { return boom }); err != nil {
		t.Fatalf("zero trials returned %v", err)
	}
}

func TestCollectOK(t *testing.T) {
	vals := collectOK([]float64{1, 2, 3, 4}, []bool{true, false, true, false})
	if !reflect.DeepEqual(vals, []float64{1, 3}) {
		t.Fatalf("collectOK = %v", vals)
	}
}

// TestWorkerCountInvariance is the parallel runner's core contract:
// the same experiment with the same seed must produce bit-identical
// results for any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	base := Config{Seed: 3, Trials: 4, MaxN: 150}
	for _, id := range []string{"fig3", "thm1", "wakeup", "luby", "bits"} {
		var first *Result
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(first, res) {
				t.Fatalf("%s: results differ between 1 and %d workers", id, workers)
			}
		}
	}
}

// TestEngineInvariance pins experiment outputs across simulation
// engines and shard counts: auto, columnar, and sparse trials must
// aggregate identically — including the per-edge loss sweep, whose
// lossy exchange runs on every engine.
func TestEngineInvariance(t *testing.T) {
	base := Config{Seed: 5, Trials: 3, MaxN: 120}
	for _, exp := range []string{"fig3", "ablate-loss"} {
		var first *Result
		for _, tc := range []struct {
			name   string
			engine sim.Engine
			shards int
		}{
			{"auto", sim.EngineAuto, 0},
			{"columnar-serial", sim.EngineColumnar, 1},
			{"columnar-sharded", sim.EngineColumnar, 3},
			{"sparse-serial", sim.EngineSparse, 1},
			{"sparse-sharded", sim.EngineSparse, 3},
		} {
			cfg := base
			cfg.Engine = tc.engine
			cfg.Shards = tc.shards
			res, err := Run(exp, cfg)
			if err != nil {
				t.Fatalf("%s engine %s: %v", exp, tc.name, err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(first, res) {
				t.Fatalf("%s differs between auto and %s engines", exp, tc.name)
			}
		}
	}
}
