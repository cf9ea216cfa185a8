package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
)

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON pins the metrics the program emits
// to the ones BENCHMARK.json declares, and both to the name grammar.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var declared []metricDef
	for _, m := range bf.EndToEnd {
		declared = append(declared, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if fmt.Sprint(declared) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program emits %v", declared, endToEnd)
	}
	declared = nil
	for _, m := range bf.PerLayer {
		declared = append(declared, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if fmt.Sprint(declared) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program emits %v", declared, perLayer)
	}

	setupBound := 0.0
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json = %v, program runs %v", names, workloadNames())
	}

	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameGrammar.MatchString(d.name) {
			t.Errorf("metric name %q breaks the name grammar", d.name)
		}
		if !unitGrammar.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q breaks the unit grammar", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}

// TestGateRejectsCorruptedMIS: a solve whose set lost a member, or
// gained a neighbour of one, fails the gate.
func TestGateRejectsCorruptedMIS(t *testing.T) {
	csr, err := graph.RMATCSR(1<<10, 1<<13, rmatA, rmatB, rmatC, rmatD, rng.New(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	view := graph.FromCSR(csr)
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	v := fault.NewVerifier(view)
	res, err := sim.RunCSR(csr, factory, rng.New(5), sim.Options{Engine: sim.EngineSparse, Bulk: bulk, OnMISDelta: v.ObserveRound})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolve(res, graph.VerifyMIS(view, res.InMIS), v); err != nil {
		t.Fatalf("clean solve rejected: %v", err)
	}

	member, neighbour := -1, -1
	for u := 0; u < view.N() && member < 0; u++ {
		if res.InMIS[u] && view.Degree(u) > 0 {
			member, neighbour = u, int(view.Neighbors(u)[0])
		}
	}
	if member < 0 {
		t.Fatal("no member with a neighbour")
	}
	for name, corrupt := range map[string]func([]bool){
		"dropped member":   func(set []bool) { set[member] = false },
		"added neighbour":  func(set []bool) { set[neighbour] = true },
		"round-capped run": nil,
	} {
		bad := *res
		bad.InMIS = append([]bool(nil), res.InMIS...)
		if corrupt != nil {
			corrupt(bad.InMIS)
		} else {
			bad.Terminated = false
		}
		if err := checkSolve(&bad, graph.VerifyMIS(view, bad.InMIS), v); err == nil {
			t.Errorf("%s: gate passed a corrupted solve", name)
		}
	}

	c, err := scenario.ParseCompiledBytes(trialsDenseShape(true).body(9))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(context.Background(), c, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkUnits(rep.Units); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*scenario.UnitReport){
		"unverified":      func(u *scenario.UnitReport) { u.Verified = false },
		"dependent round": func(u *scenario.UnitReport) { u.IndependentEveryRound = false },
		"not maximal":     func(u *scenario.UnitReport) { u.MaximalAtTermination = false },
		"missing a trial": func(u *scenario.UnitReport) { u.TrialRounds = u.TrialRounds[1:] },
	} {
		units := append([]scenario.UnitReport(nil), rep.Units...)
		corrupt(&units[0])
		if err := checkUnits(units); err == nil {
			t.Errorf("%s: gate passed a corrupted report", name)
		}
	}
}

// TestGateRejectsHitMissMismatch: a repeat served bytes other than its
// first execution's, a report under the wrong hash, and bytes that are
// not the report's canonical encoding each count as wrong.
func TestGateRejectsHitMissMismatch(t *testing.T) {
	body := trialsDenseShape(true).body(4)
	c, err := scenario.ParseCompiledBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := runJob(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []svcRequest{{body: body, hash: c.Hash}, {body: body, hash: c.Hash, hit: true}}
	now := time.Now()
	served := func(b []byte, id string) *svcResult {
		return &svcResult{body: b, id: id, due: now, end: now.Add(time.Millisecond)}
	}
	tampered := bytes.Replace(good, []byte(`"verified": true`), []byte(`"verified": true `), 1)
	if bytes.Equal(tampered, good) {
		t.Fatal("tampering changed nothing")
	}
	for name, tc := range map[string]struct {
		results []*svcResult
		wrong   int
	}{
		"clean":          {[]*svcResult{served(good, c.Hash), served(good, c.Hash)}, 0},
		"hit mismatch":   {[]*svcResult{served(good, c.Hash), served(tampered, c.Hash)}, 1},
		"non-canonical":  {[]*svcResult{served(tampered, c.Hash), served(tampered, c.Hash)}, 1},
		"wrong job id":   {[]*svcResult{served(good, c.Hash), served(good, "feed")}, 1},
		"failed request": {[]*svcResult{served(good, c.Hash), {err: fmt.Errorf("timeout")}}, 0},
	} {
		check := checkRun(reqs, &svcRun{results: tc.results})
		if check.wrong != tc.wrong {
			t.Errorf("%s: %d wrong, want %d", name, check.wrong, tc.wrong)
		}
	}
}

// TestAccountingPartitionsLaneTime: layers plus unattributed cover the
// lane time exactly, with a two-lane pool under a root.
func TestAccountingPartitionsLaneTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("job", noSpan, 0, at(0), at(100))
	tr.add("scenario.compile", root, 0, at(0), at(10))
	pool := tr.add("experiment.pool", root, 0, at(10), at(90))
	tr.spans[pool].Width = 2
	for lane := 0; lane < 2; lane++ {
		trial := tr.add("trial", pool, 0, at(10), at(80+5*lane))
		tr.add("graph.build", trial, 0, at(10), at(60))
	}
	tr.add("graph.build", noSpan, setupJob, at(200), at(300))
	a := tr.account()
	if a.totalNs != int64(180*time.Millisecond) {
		t.Errorf("total %v, want 180ms of lane time", time.Duration(a.totalNs))
	}
	sum := a.unattributedNs
	for _, ns := range a.selfNs {
		sum += ns
	}
	if sum != a.totalNs {
		t.Errorf("self times sum to %v, total is %v", time.Duration(sum), time.Duration(a.totalNs))
	}
	if got := time.Duration(a.selfNs["experiment"]); got != 15*time.Millisecond {
		t.Errorf("pool self time %v, want the 15ms its lanes sat idle", got)
	}
	if got := time.Duration(a.selfNs["graph"]); got != 100*time.Millisecond {
		t.Errorf("graph self time %v, want 100ms (set-up excluded)", got)
	}
}

// TestSmoke runs every workload at smoke-test size, untraced and
// traced, and checks the result line's shape and verdict.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w, "--seed", "7", "--seconds", "0.4", "--trace", traced, "--short"}
				if err := run(context.Background(), args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d; record: %s", res.Correct, res.Failed, res.Attempted, lines[0])
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v", d.name, m)
					}
				}
				if traced == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestSameSeedSameDigest: a seed fixes the inputs, so two runs of it
// serve byte-identical results. On the closed loops the digest covers a
// fixed prefix of the work, so it also holds across budgets and trace
// modes; service-mixed's schedule is fixed by the seed and the window.
func TestSameSeedSameDigest(t *testing.T) {
	digest := func(args ...string) string {
		var out bytes.Buffer
		if err := run(context.Background(), append(args, "--seed", "3", "--short"), &out); err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Record struct {
				Digest string `json:"digest"`
			} `json:"record"`
		}
		if err := json.Unmarshal([]byte(strings.SplitN(out.String(), "\n", 2)[0]), &rec); err != nil {
			t.Fatal(err)
		}
		return rec.Record.Digest
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a := digest("--workload", w, "--seconds", "0.3")
			other := []string{"--workload", w, "--seconds", "0.3"}
			if w != "service-mixed" {
				other = []string{"--workload", w, "--seconds", "0.9", "--trace", "1"}
			}
			if b := digest(other...); a != b || a == "" {
				t.Errorf("digests %q and %q differ", a, b)
			}
		})
	}
}
