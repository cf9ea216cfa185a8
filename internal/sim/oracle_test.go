package sim

import (
	"fmt"
	"math"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
)

// runOracle is the reference implementation the equivalence suites
// compare both engines against: the per-node scalar round loop, which
// walks every node and every adjacency list one element at a time and
// drives the per-node automata directly. It shares Run's validation
// preamble and ignores Options.Engine, Options.Bulk, and
// Options.Shards. Slow by design; its value is that each line maps onto
// one step of the paper's time step.
func runOracle(g *graph.Graph, factory beep.Factory, master *rng.Source, opts Options) (*Result, error) {
	cfg, err := prepare(g, g.M(), master, opts)
	if err != nil {
		return nil, err
	}
	opts, maxRounds, plan := cfg.opts, cfg.maxRounds, cfg.plan
	n := g.N()
	wake := opts.WakeAt
	maxDeg := g.MaxDegree()

	autos := make([]beep.Automaton, n)
	streams := make([]*rng.Source, n)
	for v := 0; v < n; v++ {
		autos[v] = factory(beep.NodeInfo{ID: v, N: n, Degree: g.Degree(v), MaxDegree: maxDeg})
		streams[v] = master.Stream(uint64(v))
	}
	var faultSrc *rng.Source
	if opts.BeepLoss > 0 {
		faultSrc = master.Stream(faultStreamID)
	}

	res := &Result{
		InMIS:  make([]bool, n),
		States: make([]beep.State, n),
		Beeps:  make([]int, n),
	}
	for v := range res.States {
		res.States[v] = beep.StateActive
	}
	active := n

	beeped := make([]bool, n)
	heard := make([]bool, n)
	joined := make([]bool, n)
	neighborJoined := make([]bool, n)
	var prop propagator = scalarPropagator{g}
	// Persistent MIS beeping/re-announcing is needed whenever a node can
	// arrive late to an established set: staggered wake-up, and outages
	// (a node down during its neighbour's announcement misses the
	// domination and must be able to catch up after recovering).
	var persist, emit []bool
	if wake != nil || plan.outages() {
		persist = make([]bool, n)
		emit = make([]bool, n) // scratch emitter mask: beeped/joined ∪ persist
	}
	// down overlays the lifecycle states with transient outages; a down
	// node neither beeps, hears, nor observes, whatever its state.
	var down []bool
	if plan.outages() {
		down = make([]bool, n)
	}
	awake := func(v, round int) bool { return wake == nil || round >= wake[v] }
	up := func(v int) bool { return down == nil || !down[v] }
	var probs []float64 // lazily allocated snapshot buffer
	// MIS-delta scratch for the OnMISDelta hook (and reset bookkeeping).
	var joinedDelta, leftDelta []int
	metrics := opts.Metrics
	clock := phaseClock{m: metrics}

	for round := 1; (active > 0 || plan.keepAlive(round)) && round <= maxRounds; round++ {
		res.Rounds = round
		clock.start()
		prevBeeps, prevPersist := res.TotalBeeps, res.PersistentBeeps
		// Fault injection: crashes take effect before the exchange.
		// (Entries are range- and duplicate-checked up front; a listed
		// node that already terminated is a no-op.)
		for _, v := range opts.CrashAtRound[round] {
			if res.States[v] == beep.StateActive {
				res.States[v] = beep.StateCrashed
				active--
			}
		}
		// Outage recoveries, then fresh downs (in that order, so a
		// back-to-back outage pair keeps the node down through the
		// boundary round while still applying the recovery semantics).
		leftDelta = leftDelta[:0]
		if plan.outages() {
			for _, v := range plan.resumeAt[round] {
				down[v] = false
			}
			for _, v := range plan.resetAt[round] {
				down[v] = false
				// Reset recovery: the node comes back as a freshly
				// started active competitor, whatever it was before. A
				// departing MIS member is reported to the delta hook —
				// its dominated neighbours stay dominated (they cannot
				// know), which is exactly the transient maximality hole
				// fault.Verifier measures.
				switch res.States[v] {
				case beep.StateInMIS:
					res.States[v] = beep.StateActive
					res.InMIS[v] = false
					active++
					leftDelta = append(leftDelta, v)
				case beep.StateDominated:
					res.States[v] = beep.StateActive
					active++
				}
				autos[v] = factory(beep.NodeInfo{ID: v, N: n, Degree: g.Degree(v), MaxDegree: maxDeg})
			}
			for _, v := range plan.startAt[round] {
				down[v] = true
			}
		}
		clock.mark(obs.PhaseFaults)
		// First exchange: draw beeps (dormant and down nodes neither
		// beep nor later observe).
		for v := 0; v < n; v++ {
			beeped[v] = awake(v, round) && up(v) && res.States[v] == beep.StateActive && autos[v].Beep(streams[v])
			heard[v] = false
			joined[v] = false
			neighborJoined[v] = false
			if beeped[v] {
				res.Beeps[v]++
				res.TotalBeeps++
			}
		}
		// The per-node engines fuse the beep tally into the draw loop, so
		// the whole section is eligible_draw and beep_tally records zero.
		clock.mark(obs.PhaseEligibleDraw)
		// With wake-up scheduling or outages, established MIS members
		// keep beeping so late arrivals can never perceive silence next
		// to them — except while themselves down.
		if persist != nil {
			for v := 0; v < n; v++ {
				persist[v] = res.States[v] == beep.StateInMIS && up(v)
				if persist[v] {
					res.PersistentBeeps++
				}
			}
		}
		// Propagate beeps to neighbours (with optional loss per listener).
		emitters := beeped
		if persist != nil {
			for v := 0; v < n; v++ {
				emit[v] = beeped[v] || persist[v]
			}
			emitters = emit
		}
		if faultSrc != nil {
			// Lossy exchange: fault draws happen per (beeper, listener)
			// edge in adjacency order.
			for v := 0; v < n; v++ {
				if !emitters[v] {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if faultSrc.Bernoulli(opts.BeepLoss) {
						continue
					}
					heard[w] = true
				}
			}
		} else {
			prop.propagate(emitters, heard)
		}
		if metrics != nil {
			metrics.Frontier.Observe(int64(res.TotalBeeps - prevBeeps + res.PersistentBeeps - prevPersist))
			delivered := 0
			for _, h := range heard {
				if h {
					delivered++
				}
			}
			metrics.PropagateBits.Add(uint64(delivered))
		}
		clock.mark(obs.PhasePropagate)
		// Channel noise: each eligible listener's heard bit passes
		// through the lossy/spurious channel, drawn from that
		// (node, round)'s own stream — identical on every engine.
		if plan != nil && plan.channel != nil {
			for v := 0; v < n; v++ {
				if res.States[v] == beep.StateActive && awake(v, round) && up(v) {
					heard[v] = plan.channel.Hears(master, round, v, heard[v])
				}
			}
			clock.mark(obs.PhaseFaults)
		}
		// Join rule: beeped into (perceived) silence.
		for v := 0; v < n; v++ {
			if beeped[v] && !heard[v] {
				joined[v] = true
			}
		}
		// Second exchange: join announcements (reliable). Persistent MIS
		// members re-announce so nodes waking later still get dominated.
		for v := 0; v < n; v++ {
			if joined[v] && g.Degree(v) > 0 {
				res.JoinAnnouncements++
			}
		}
		announcers := joined
		if persist != nil {
			for v := 0; v < n; v++ {
				emit[v] = joined[v] || persist[v]
			}
			announcers = emit
		}
		prop.propagate(announcers, neighborJoined)
		if metrics != nil {
			delivered := 0
			for _, h := range neighborJoined {
				if h {
					delivered++
				}
			}
			metrics.PropagateBits.Add(uint64(delivered))
		}
		clock.mark(obs.PhaseJoin)
		// State transitions and feedback (down nodes observe nothing and
		// cannot be dominated — they did not hear the announcement).
		for v := 0; v < n; v++ {
			if res.States[v] != beep.StateActive || !awake(v, round) || !up(v) {
				continue
			}
			switch {
			case joined[v]:
				res.States[v] = beep.StateInMIS
				res.InMIS[v] = true
				active--
			case neighborJoined[v]:
				res.States[v] = beep.StateDominated
				active--
			default:
				autos[v].Observe(beep.Outcome{
					Beeped:         beeped[v],
					Heard:          heard[v],
					NeighborJoined: neighborJoined[v],
				})
			}
		}
		clock.mark(obs.PhaseObserve)
		clock.flush()
		if opts.OnMISDelta != nil {
			joinedDelta = joinedDelta[:0]
			for v := 0; v < n; v++ {
				if joined[v] {
					joinedDelta = append(joinedDelta, v)
				}
			}
			if len(joinedDelta) > 0 || len(leftDelta) > 0 {
				opts.OnMISDelta(round, joinedDelta, leftDelta)
			}
		}
		if opts.OnRound != nil {
			if probs == nil {
				probs = make([]float64, n)
			}
			for v := 0; v < n; v++ {
				switch {
				case res.States[v] != beep.StateActive:
					probs[v] = 0
				default:
					if pr, ok := autos[v].(beep.ProbabilityReporter); ok {
						probs[v] = pr.BeepProbability()
					} else {
						probs[v] = math.NaN()
					}
				}
			}
			opts.OnRound(Snapshot{Round: round, States: res.States, Beeped: beeped, Probabilities: probs, Active: active})
		}
	}
	res.Terminated = active == 0
	if metrics != nil {
		metrics.Runs.Inc()
	}
	if !res.Terminated {
		return res, fmt.Errorf("%w: %d nodes still active after %d rounds", ErrTooManyRounds, active, maxRounds)
	}
	return res, nil
}

// propagator delivers one exchange: dst[w] becomes true for every w
// adjacent to a vertex with emit[v] true. dst is all-false on entry.
// Loss-free by contract — the lossy first exchange stays in the round
// loop, where per-edge fault draws keep their deterministic order.
type propagator interface {
	propagate(emit, dst []bool)
}

// scalarPropagator walks CSR adjacency lists.
type scalarPropagator struct{ g *graph.Graph }

func (p scalarPropagator) propagate(emit, dst []bool) {
	for v, e := range emit {
		if !e {
			continue
		}
		for _, w := range p.g.Neighbors(v) {
			dst[w] = true
		}
	}
}
