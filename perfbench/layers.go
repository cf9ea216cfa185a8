package main

import (
	"beepmis/internal/obs"
)

// layerCounts are the work counts a traced run gathers beside its
// spans, so per-layer rates are measured where the work happens.
type layerCounts struct {
	simRuns        int64
	rounds         int64
	nodeRounds     int64
	edgesBuilt     int64
	representBytes int64
	reportBytes    int64
	reports        int64
}

func perRun(total, runs int64) float64 {
	if runs == 0 {
		return 0
	}
	return float64(total) / float64(runs)
}

// phaseTotals reads an engine-metrics bundle's per-phase nanoseconds
// and its run count.
func phaseTotals(em *obs.EngineMetrics) (ns [obs.PhaseCount]uint64, runs uint64) {
	for p := range ns {
		ns[p] = em.Phase[p].Sum()
	}
	return ns, em.Runs.Value()
}

// layerMetrics fills every per-layer metric the spans, the counts and
// the engine's phase totals determine; metrics a workload's spans do
// not cover stay 0 unless the workload sets them afterwards.
func layerMetrics(out *outcome, tr *tracer, phaseNs [obs.PhaseCount]uint64, simRuns uint64, c *layerCounts) {
	for _, d := range perLayer {
		if _, ok := out.metrics[d.name]; !ok {
			out.metrics[d.name] = 0
		}
	}
	a := tr.account()
	m := out.metrics
	m["scenario.compile_ms"] = a.byName["scenario.compile"].meanMs()
	m["scenario.encode_ms"] = a.byName["scenario.encode"].meanMs()
	m["scenario.report_bytes"] = perRun(c.reportBytes, c.reports)
	build := a.byName["graph.build"]
	m["graph.build_ms"] = build.meanMs()
	if build.ns > 0 {
		m["graph.edges_per_s"] = float64(c.edgesBuilt) / (float64(build.ns) / 1e9)
	}
	represent := a.byName["graph.represent"]
	m["graph.represent_ms"] = represent.meanMs()
	m["graph.represent_bytes"] = perRun(c.representBytes, int64(represent.count))
	m["graph.verify_ms"] = a.byName["graph.verify"].meanMs()
	m["sim.run_ms"] = a.byName["sim.run"].meanMs()
	m["sim.rounds"] = perRun(c.rounds, c.simRuns)
	m["sim.node_rounds"] = perRun(c.nodeRounds, c.simRuns)
	for p := obs.Phase(0); p < obs.PhaseCount; p++ {
		m["sim.phase."+p.String()+"_ms"] = perRun(int64(phaseNs[p]), int64(simRuns)) / 1e6
	}
	m["fault.observe_ms"] = perRun(a.byName["fault.observe"].ns, c.simRuns) / 1e6
	if pool := a.byName["experiment.pool"]; pool.laneNs > 0 {
		m["experiment.pool_busy_share"] = float64(a.byName["trial"].ns) / float64(pool.laneNs)
	}
	for _, l := range layers {
		m["self."+l+"_share"] = a.share(a.selfNs[l])
	}
	m["unattributed_share"] = a.share(a.unattributedNs)
}
