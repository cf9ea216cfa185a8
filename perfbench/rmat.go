package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

// solve-rmat: a closed loop with one caller over one Graph500 R-MAT
// graph (2^20 vertices, 8M sampled edges — the scripts/bench.sh
// stage-5 row) built in set-up with graph.RMATCSR. Each timed operation
// is sim.RunCSR on the sparse engine with default shards and the
// incremental verifier attached, plus graph.VerifyMIS on the FromCSR
// view, over a fixed list of solve seeds. Construction shows only in
// setup_s; the timed region is the round loop, where propagate
// dominates, and verification. The skewed degrees are where locality
// work on the sparse engine can show.

type rmatShape struct {
	scale  int
	edges  int64
	solves int // length of the fixed solve-seed list
}

func solveRMATShape(short bool) rmatShape {
	if short {
		return rmatShape{scale: 12, edges: 1 << 15, solves: 2}
	}
	return rmatShape{scale: 20, edges: 8 << 20, solves: 8}
}

// Graph500 quadrant probabilities.
const rmatA, rmatB, rmatC, rmatD = 0.57, 0.19, 0.19, 0.05

func runSolveRMAT(ctx context.Context, cfg config) (*outcome, error) {
	shape := solveRMATShape(cfg.short)
	master := rng.New(cfg.seed)
	graphSeed := master.Stream(streamGraph).Uint64()
	warmSeed := master.Stream(streamWarmupSeeds).Uint64()
	seedSrc := master.Stream(streamSolveSeeds)
	seeds := make([]uint64, shape.solves)
	for i := range seeds {
		seeds[i] = seedSrc.Uint64()
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		return nil, err
	}

	// tr receives set-up and traced-half spans; the untraced solves
	// pass a nil tracer.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var csr *graph.CSR
	var view *graph.Graph
	var buildNs int64

	// solve is one timed operation: RunCSR with the verifier attached,
	// then VerifyMIS. The caller checks the rest of the gate after the
	// clock stops.
	solve := func(tr *tracer, seed uint64, job int32, em *obs.EngineMetrics) (solved, error) {
		root := tr.begin("op", noSpan, job)
		defer tr.end(root)
		sp := tr.begin("fault.new_verifier", root, job)
		verifier := fault.NewVerifier(view)
		tr.end(sp)
		run := tr.begin("sim.run", root, job)
		opts := sim.Options{Engine: sim.EngineSparse, Bulk: bulk, Metrics: em, OnMISDelta: verifier.ObserveRound}
		if tr != nil {
			opts.OnMISDelta = func(round int, joined, left []int) {
				o := tr.begin("fault.observe", run, job)
				verifier.ObserveRound(round, joined, left)
				tr.end(o)
			}
		}
		res, err := sim.RunCSR(csr, factory, rng.New(seed), opts)
		tr.end(run)
		if err != nil {
			return solved{}, err
		}
		sp = tr.begin("graph.verify", root, job)
		misErr := graph.VerifyMIS(view, res.InMIS)
		tr.end(sp)
		return solved{res: res, misErr: misErr, verifier: verifier}, nil
	}

	setup, err := setupTimes(cfg.setupPasses(3), func() error {
		csr, view = nil, nil
		releaseMemory()
		sp := tr.begin("graph.build", noSpan, setupJob)
		t0 := time.Now()
		c, err := graph.RMATCSR(1<<shape.scale, shape.edges, rmatA, rmatB, rmatC, rmatD, rng.New(graphSeed), runtime.GOMAXPROCS(0))
		buildNs = time.Since(t0).Nanoseconds()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("graph.represent", noSpan, setupJob)
		csr, view = c, graph.FromCSR(c)
		tr.end(sp)
		s, err := solve(nil, warmSeed, setupJob, nil)
		if err != nil {
			return err
		}
		return checkSolve(s.res, s.misErr, s.verifier)
	})
	if err != nil {
		return nil, fmt.Errorf("solve-rmat set-up: %w", err)
	}
	n := csr.N()
	csrBytes := graph.CSRBytes(n, csr.M())

	out := &outcome{metrics: map[string]float64{}, record: map[string]any{
		"n": n, "m": csr.M(), "csr_bytes": csrBytes, "llc_bytes": llcBytes(), "solve_seeds": len(seeds),
		"setup_s_reps": setup.cpu, "setup_wall_s_reps": setup.wall,
		"startup_s": time.Since(processStart).Seconds(),
	}}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}

	// loop runs solves over the seed list, until the budget is spent
	// and every seed has been solved once (ops < 0), or for exactly ops
	// solves.
	mem := newMemSampler()
	loop := func(tr *tracer, ops int, em *obs.EngineMetrics) []opResult {
		var results []opResult
		start := time.Now()
		for i := 0; ops < 0 && (i < len(seeds) || time.Since(start) < budget) || i < ops; i++ {
			if ctx.Err() != nil {
				break
			}
			job := int32(i)
			t0, cpu0 := time.Now(), cpuSeconds()
			s, err := solve(tr, seeds[i%len(seeds)], job, em)
			elapsed, cpu := time.Since(t0), cpuSeconds()-cpu0
			mem.add()
			out.attempted++
			if err != nil {
				out.errors++
				continue
			}
			sp := tr.begin("fault.check", noSpan, job)
			if checkSolve(s.res, s.misErr, s.verifier) != nil {
				out.wrong++
			}
			tr.end(sp)
			results = append(results, opResult{seed: i % len(seeds), at: t0.Sub(start), ms: ms(elapsed), cpu: cpu, rounds: s.res.Rounds, digest: misDigest(s.res)})
		}
		return results
	}

	untraced := loop(nil, -1, nil)
	digest, diverged := digestSolves(untraced, len(seeds))
	out.record["digest"] = digest
	out.wrong += diverged
	if !cfg.trace {
		var opMs []float64
		rate := &windowedRate{span: budget}
		for _, r := range untraced {
			opMs = append(opMs, r.ms)
			rate.add(r.at, float64(n)*float64(r.rounds), r.cpu)
		}
		out.record["samples"] = len(opMs)
		out.metrics["op_ms_p50"] = quantile(opMs, 0.5)
		out.record["op_ms_p90"] = quantile(opMs, 0.9)
		out.metrics["work_per_cpu_s"] = rate.median()
		out.metrics["setup_s"] = quantile(setup.cpu, 0.5)
		out.metrics["heap_live_mb"] = mem.median()
		return out, nil
	}

	// Traced run: the untraced half above, then the same solves traced.
	em := &obs.EngineMetrics{}
	traced := loop(tr, len(untraced), em)
	var untracedMs, tracedMs float64
	counts := &layerCounts{edgesBuilt: int64(csr.M()), representBytes: csrBytes}
	for i, r := range traced {
		tracedMs += r.ms
		untracedMs += untraced[i].ms
		if !bytes.Equal(r.digest, untraced[i].digest) {
			out.wrong++
		}
		counts.simRuns++
		counts.rounds += int64(r.rounds)
		counts.nodeRounds += int64(n) * int64(r.rounds)
	}
	out.record["untraced_ops_ms"] = untracedMs
	out.record["traced_ops_ms"] = tracedMs
	out.record["build_s"] = float64(buildNs) / 1e9
	out.metrics["trace.overhead_share"] = tracedMs/untracedMs - 1
	phaseNs, simRuns := phaseTotals(em)
	layerMetrics(out, tr, phaseNs, simRuns, counts)
	path, err := tr.writeSpans(cfg.spansDir, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	out.record["spans"] = path
	return out, nil
}

// opResult is one timed solve.
type opResult struct {
	seed   int           // index into the solve-seed list
	at     time.Duration // start, from the loop's start
	ms     float64
	cpu    float64 // process CPU seconds
	rounds int
	digest []byte
}

// digestSolves hashes the first solve of every seed, in seed order:
// the same set of outputs on every run of a seed, however many solves
// the budget allowed. It also counts the later solves whose output
// differs from their seed's first, which the gate treats as wrong.
func digestSolves(results []opResult, seeds int) (string, int) {
	first := make([][]byte, seeds)
	diverged := 0
	for _, r := range results {
		switch {
		case first[r.seed] == nil:
			first[r.seed] = r.digest
		case !bytes.Equal(first[r.seed], r.digest):
			diverged++
		}
	}
	dig := newDigest()
	for _, d := range first {
		dig.add(d)
	}
	return dig.sum(), diverged
}

// solved is one solve's output, for the gate.
type solved struct {
	res      *sim.Result
	misErr   error // graph.VerifyMIS's verdict on res.InMIS
	verifier *fault.Verifier
}

// misDigest hashes a solve's round count and membership.
func misDigest(res *sim.Result) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(res.Rounds))
	var word uint64
	for v, in := range res.InMIS {
		if in {
			word |= 1 << (v % 64)
		}
		if v%64 == 63 || v == len(res.InMIS)-1 {
			b = binary.LittleEndian.AppendUint64(b, word)
			word = 0
		}
	}
	sum := sha256.Sum256(b)
	return sum[:]
}
