package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"beepmis/internal/fault"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
)

// The correctness gate. Every check returns nil or the reason the
// output is wrong; a workload counts each non-nil result as a wrong
// output, which lands in the result line's failed count and turns
// correct to false.

// checkUnits checks a report's per-unit verdicts: every trial's MIS
// passed graph.VerifyMIS, independence held in every round, and the
// set was maximal at termination.
func checkUnits(units []scenario.UnitReport) error {
	if len(units) == 0 {
		return fmt.Errorf("report has no units")
	}
	for _, u := range units {
		switch {
		case !u.Verified:
			return fmt.Errorf("unit %d: a trial's set failed VerifyMIS", u.Unit)
		case !u.IndependentEveryRound:
			return fmt.Errorf("unit %d: %d independence violations", u.Unit, u.IndependenceViolations)
		case !u.MaximalAtTermination:
			return fmt.Errorf("unit %d: not maximal at termination", u.Unit)
		case len(u.TrialRounds) != u.Trials:
			return fmt.Errorf("unit %d: %d trial rounds for %d trials", u.Unit, len(u.TrialRounds), u.Trials)
		}
	}
	return nil
}

// checkReportBytes decodes served report bytes, checks the hash the
// client expected, and checks the verdicts.
func checkReportBytes(b []byte, wantHash string) (*scenario.Report, error) {
	var rep scenario.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	if rep.Hash != wantHash {
		return nil, fmt.Errorf("report hash %.12s, want %.12s", rep.Hash, wantHash)
	}
	return &rep, checkUnits(rep.Units)
}

// checkSameBytes checks that a repeat of a request (a cache hit or a
// coalesced duplicate) was served the bytes of the first execution.
func checkSameBytes(first, repeat []byte) error {
	if !bytes.Equal(first, repeat) {
		return fmt.Errorf("repeat served %d bytes differing from the first execution's %d", len(repeat), len(first))
	}
	return nil
}

// checkSolve checks one simulation's output: it terminated, its set
// passed graph.VerifyMIS (misErr is that call's result, made inside the
// timed operation), and the incremental verifier saw no independence
// breach and no uncovered node at the end.
func checkSolve(res *sim.Result, misErr error, v *fault.Verifier) error {
	if !res.Terminated {
		return fmt.Errorf("run stopped at the round cap after %d rounds", res.Rounds)
	}
	if misErr != nil {
		return misErr
	}
	if n := v.ViolationCount(); n != 0 {
		return fmt.Errorf("%d independence violations", n)
	}
	if un := v.Uncovered(nil); len(un) != 0 {
		return fmt.Errorf("%d nodes uncovered at termination", len(un))
	}
	return nil
}
