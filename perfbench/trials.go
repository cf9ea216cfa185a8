package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"beepmis/internal/experiment"
	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
	"beepmis/internal/stats"
)

// trials-dense: a closed loop with one caller. Each job is a
// load-tiny-shaped spec — G(1200, 0.05), feedback, 60 trials — with a
// fresh seed, run through the path misrun and misd use:
// ParseCompiledBytes → Run on the default trial pool → Report.JSON.
// Graph construction is most of a job, so this is the workload a
// construction or representation change is judged on.

type trialsShape struct {
	n      int
	p      float64
	trials int
}

func trialsDenseShape(short bool) trialsShape {
	if short {
		return trialsShape{n: 200, p: 0.05, trials: 4}
	}
	return trialsShape{n: 1200, p: 0.05, trials: 60}
}

func (s trialsShape) body(seed uint64) []byte {
	return fmt.Appendf(nil, `{"graph":{"family":"gnp","n":%d,"p":%v},"algorithm":"feedback","trials":%d,"seed":%d}`,
		s.n, s.p, s.trials, seed)
}

// runJob is one untraced job, parse to report bytes.
func runJob(ctx context.Context, body []byte) ([]byte, *scenario.Report, error) {
	c, err := scenario.ParseCompiledBytes(body)
	if err != nil {
		return nil, nil, err
	}
	rep, err := scenario.Run(ctx, c, scenario.RunOptions{})
	if err != nil {
		return nil, nil, err
	}
	b, err := rep.JSON()
	return b, rep, err
}

// digestJobs is how many jobs, the first of the job-seed stream, the
// digest covers. The timed loop runs at least this many, so the digest
// is the same for a seed whatever the budget, the host's speed or the
// trace mode.
const digestJobs = 8

func runTrialsDense(ctx context.Context, cfg config) (*outcome, error) {
	shape := trialsDenseShape(cfg.short)
	master := rng.New(cfg.seed)
	jobSeeds := master.Stream(streamJobSeeds)
	warmSeeds := master.Stream(streamWarmupSeeds)

	setup, err := setupTimes(cfg.setupPasses(21), func() error {
		b, rep, err := runJob(ctx, shape.body(warmSeeds.Uint64()))
		if err == nil && (len(b) == 0 || checkUnits(rep.Units) != nil) {
			err = fmt.Errorf("warm-up job failed its checks")
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("trials-dense set-up: %w", err)
	}

	out := &outcome{metrics: map[string]float64{}, record: map[string]any{}}
	dig := newDigest()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	// The timed loop: jobs back to back until the budget is spent, and
	// at least the ones the digest covers.
	var jobMs []float64
	var bodies, results [][]byte
	verifiedTrials := 0
	rate := &windowedRate{span: budget}
	mem := newMemSampler()
	start := time.Now()
	for i := 0; i < digestJobs || time.Since(start) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		body := shape.body(jobSeeds.Uint64())
		t0, cpu0 := time.Now(), cpuSeconds()
		b, rep, err := runJob(ctx, body)
		elapsed, cpu := time.Since(t0), cpuSeconds()-cpu0
		out.attempted++
		if err != nil {
			out.errors++
			continue
		}
		jobMs = append(jobMs, ms(elapsed))
		mem.add()
		verified := 0
		if checkUnits(rep.Units) != nil {
			out.wrong++
		} else {
			for _, u := range rep.Units {
				verified += u.Trials
			}
		}
		verifiedTrials += verified
		rate.add(t0.Sub(start), float64(verified), cpu)
		if i < digestJobs {
			dig.add(b)
		}
		bodies = append(bodies, body)
		results = append(results, b)
	}
	wall := time.Since(start)
	out.record["digest"] = dig.sum()
	out.record["samples"] = len(jobMs)
	out.record["setup_s_reps"], out.record["setup_wall_s_reps"] = setup.cpu, setup.wall
	out.record["startup_s"] = start.Sub(processStart).Seconds()

	if !cfg.trace {
		out.metrics["op_ms_p50"] = quantile(jobMs, 0.5)
		out.record["op_ms_p90"] = quantile(jobMs, 0.9)
		out.metrics["work_per_cpu_s"] = rate.median()
		out.record["work_per_s_run"] = float64(verifiedTrials) / wall.Seconds()
		out.metrics["setup_s"] = quantile(setup.cpu, 0.5)
		out.metrics["heap_live_mb"] = mem.median()
		return out, nil
	}

	// Traced half: the same bodies again, through the benchmark's
	// copy of the scenario runner's calls, each wrapped in a span. Its
	// bytes must equal the untraced run's, which proves the copy makes
	// the calls the runner makes.
	tr := newTracer()
	em := &obs.EngineMetrics{}
	counts := &layerCounts{}
	tracedStart := time.Now()
	for i, body := range bodies {
		b, err := tracedJob(ctx, tr, int32(i), body, em, counts)
		if err != nil {
			return nil, fmt.Errorf("traced job %d: %w", i, err)
		}
		if err := checkSameBytes(results[i], b); err != nil {
			out.wrong++
		}
	}
	tracedWall := time.Since(tracedStart)
	out.record["untraced_wall_s"] = wall.Seconds()
	out.record["traced_wall_s"] = tracedWall.Seconds()
	out.metrics["trace.overhead_share"] = tracedWall.Seconds()/wall.Seconds() - 1
	phaseNs, simRuns := phaseTotals(em)
	layerMetrics(out, tr, phaseNs, simRuns, counts)
	path, err := tr.writeSpans(cfg.spansDir, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	out.record["spans"] = path
	return out, nil
}

// trialKey mirrors the scenario runner's per-(unit, trial, slot) rng
// stream key; slots 1 and 2 are the graph and run streams.
func trialKey(unit, trial, slot int) uint64 {
	return uint64(unit)<<40 | uint64(trial)<<8 | uint64(slot)
}

// tracedJob runs one job by making, in the same order and with the
// same worker count, the public calls scenario.Run makes for a
// single-unit G(n, p) spec without crashes, wake windows or faults,
// with a span around each. It returns the report bytes.
func tracedJob(ctx context.Context, tr *tracer, job int32, body []byte, em *obs.EngineMetrics, counts *layerCounts) ([]byte, error) {
	root := tr.begin("job", noSpan, job)
	defer tr.end(root)

	sp := tr.begin("scenario.compile", root, job)
	c, err := scenario.ParseCompiledBytes(body)
	if err != nil {
		return nil, err
	}
	spec := c.Spec
	if len(c.Units) != 1 || spec.Graph.Family != "gnp" || spec.Graph.Seed != 0 || len(spec.CrashAtRound) != 0 ||
		spec.WakeWindow != 0 || spec.Faults.Enabled() || spec.BeepLoss != 0 {
		return nil, fmt.Errorf("traced runner covers single-unit per-trial G(n,p) specs only")
	}
	u := c.Units[0]
	algo := mis.Spec{Name: u.Algorithm}
	if spec.Feedback != nil {
		algo.Feedback = mis.FeedbackConfig(*spec.Feedback)
	}
	factory, bulk, err := mis.NewFactories(algo)
	if err != nil {
		return nil, err
	}
	engine, err := sim.ParseEngine(spec.Engine)
	if err != nil {
		return nil, err
	}
	tr.end(sp)

	trials := spec.Trials
	workers := experiment.Config{Workers: spec.Workers}.EffectiveWorkers()
	simOpts := sim.Options{MaxRounds: spec.MaxRounds, Engine: engine, Bulk: bulk, Shards: spec.Shards, Metrics: em}
	if simOpts.Shards == 0 && workers > 1 && trials > 1 {
		simOpts.Shards = 1
	}
	master := rng.New(spec.Seed)
	slots := make([]trialSlot, trials)

	pool := tr.beginWidth("experiment.pool", root, job, min(workers, trials))
	err = experiment.ForTrials(workers, trials, func(trial int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ts := tr.begin("trial", pool, job)
		defer tr.end(ts)

		sp := tr.begin("graph.build", ts, job)
		g := graph.GNP(u.N, u.P, master.Stream(trialKey(u.Index, trial, 1)))
		tr.end(sp)

		// The engines build their adjacency representation lazily and
		// cache it on the graph; building it here first times it alone.
		opts := simOpts
		sp = tr.begin("graph.represent", ts, job)
		var repBytes int64
		switch sim.ResolveEngine(g, opts) {
		case sim.EngineBitset, sim.EngineColumnar:
			g.Matrix()
			repBytes = graph.MatrixBytes(g.N())
		case sim.EngineSparse:
			g.CSR()
			repBytes = graph.CSRBytes(g.N(), g.M())
		}
		tr.end(sp)

		sp = tr.begin("fault.new_verifier", ts, job)
		verifier := fault.NewVerifier(g)
		tr.end(sp)

		run := tr.begin("sim.run", ts, job)
		opts.OnMISDelta = func(round int, joined, left []int) {
			o := tr.begin("fault.observe", run, job)
			verifier.ObserveRound(round, joined, left)
			tr.end(o)
		}
		res, err := sim.Run(g, factory, master.Stream(trialKey(u.Index, trial, 2)), opts)
		tr.end(run)
		if err != nil {
			return err
		}

		sp = tr.begin("graph.verify", ts, job)
		verified := graph.VerifyMIS(g, res.InMIS) == nil
		tr.end(sp)

		sp = tr.begin("fault.check", ts, job)
		maximal := len(verifier.Uncovered(nil)) == 0
		tr.end(sp)

		setSize := 0
		for _, in := range res.InMIS {
			if in {
				setSize++
			}
		}
		slots[trial] = trialSlot{
			rounds: res.Rounds, stable: verifier.LastChangeRound(), violations: verifier.ViolationCount(),
			maximal: maximal, beeps: res.MeanBeepsPerNode(), setSize: setSize,
			edges: g.M(), maxDeg: g.MaxDegree(), verified: verified, nodeRounds: g.N() * res.Rounds, repBytes: repBytes,
		}
		return nil
	})
	tr.end(pool)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("scenario.aggregate", root, job)
	rep := &scenario.Report{Hash: c.Hash, Spec: json.RawMessage(c.Canonical), Units: []scenario.UnitReport{aggregateUnit(u, trials, slots)}}
	tr.end(sp)

	sp = tr.begin("scenario.encode", root, job)
	b, err := rep.JSON()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, s := range slots {
		counts.simRuns++
		counts.rounds += int64(s.rounds)
		counts.nodeRounds += int64(s.nodeRounds)
		counts.edgesBuilt += int64(s.edges)
		counts.representBytes += s.repBytes
	}
	counts.reportBytes += int64(len(b))
	counts.reports++
	return b, checkUnits(rep.Units)
}

// trialSlot is one trial's result, aggregated in trial order after the
// pool drains, as the scenario runner does.
type trialSlot struct {
	rounds, stable, violations int
	maximal, verified          bool
	beeps                      float64
	setSize, edges, maxDeg     int
	nodeRounds                 int
	repBytes                   int64
}

// aggregateUnit reproduces the scenario runner's unit aggregation.
func aggregateUnit(u *scenario.Unit, trials int, slots []trialSlot) scenario.UnitReport {
	ur := scenario.UnitReport{
		Unit: u.Index, Algorithm: u.Algorithm, N: u.N, P: u.P, Nodes: u.Nodes, Trials: trials,
		TrialRounds: make([]int, trials), Verified: true, IndependentEveryRound: true, MaximalAtTermination: true,
	}
	rounds := make([]float64, trials)
	stable := make([]float64, trials)
	beeps := make([]float64, trials)
	sizes := make([]float64, trials)
	var edges, maxDeg float64
	for i, s := range slots {
		ur.TrialRounds[i] = s.rounds
		rounds[i] = float64(s.rounds)
		stable[i] = float64(s.stable)
		beeps[i] = s.beeps
		sizes[i] = float64(s.setSize)
		edges += float64(s.edges)
		maxDeg += float64(s.maxDeg)
		ur.Verified = ur.Verified && s.verified
		ur.IndependenceViolations += s.violations
		ur.IndependentEveryRound = ur.IndependentEveryRound && s.violations == 0
		ur.MaximalAtTermination = ur.MaximalAtTermination && s.maximal
	}
	ur.Edges = edges / float64(trials)
	ur.MaxDegree = maxDeg / float64(trials)
	ur.Rounds = aggregate(rounds)
	ur.RoundsTail, _ = stats.Tails(rounds)
	ur.StableRounds = aggregate(stable)
	ur.Beeps = aggregate(beeps)
	ur.SetSize = aggregate(sizes)
	return ur
}

func aggregate(vals []float64) scenario.Agg {
	if len(vals) == 0 {
		return scenario.Agg{}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return scenario.Agg{Mean: stats.Mean(vals), Std: stats.StdDev(vals), Min: lo, Max: hi}
}
