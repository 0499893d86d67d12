package monitor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/scs"
	"repro/internal/stl"
	"repro/internal/trace"
)

// randCAWTObs draws an observation stream covering safe and violating
// contexts, hugging the decision boundaries often enough that ties and
// near-zero margins are exercised.
func randCAWTObs(rng *rand.Rand, step int) Observation {
	o := Observation{
		Step: step, TimeMin: float64(step) * 5, CycleMin: 5,
		CGM:     40 + 300*rng.Float64(),
		BGPrime: -6 + 12*rng.Float64(),
		IOB:     -2 + 10*rng.Float64(), IOBPrime: -0.05 + 0.1*rng.Float64(),
		Action: trace.Action(1 + rng.Intn(4)),
	}
	if rng.Intn(4) == 0 {
		o.CGM = scs.DefaultBGT + rng.NormFloat64()
	}
	return o
}

// cawtOracle is one lane's independent reference for the context-aware
// monitor: the eager ContextAwareLegacy evaluator for alarm, hazard and
// fired rules, and the offline STL semantics of the rule bodies over the
// lane's own samples for the streaming verdict (robustness minimum,
// signed margin and their rules).
type cawtOracle struct {
	rules  []scs.Rule
	th     scs.Thresholds
	legacy *ContextAwareLegacy
	tr     *stl.Trace
}

func newCAWTOracle(t *testing.T, rules []scs.Rule, th scs.Thresholds) *cawtOracle {
	t.Helper()
	legacy, err := NewContextAwareLegacy("oracle", rules, th, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	o := &cawtOracle{rules: rules, th: th, legacy: legacy}
	o.reset(t)
	return o
}

func (o *cawtOracle) reset(t *testing.T) {
	t.Helper()
	tr, err := stl.NewTrace(DefaultCycleMin)
	if err != nil {
		t.Fatal(err)
	}
	o.tr = tr
	o.legacy.Reset()
}

// step returns the expected verdict, streaming verdict and fired rules
// of one observation.
func (o *cawtOracle) step(t *testing.T, obs Observation) (Verdict, scs.StreamVerdict, []int) {
	t.Helper()
	o.tr.Append(map[string]float64{
		"BG": obs.CGM, "BG'": obs.BGPrime, "IOB": obs.IOB, "IOB'": obs.IOBPrime,
		"u": float64(obs.Action),
	})
	i := o.tr.Len() - 1
	sv := scs.StreamVerdict{Sat: true, MinRobust: math.Inf(1)}
	worst := math.Inf(1)
	for _, r := range o.rules {
		body := r.STL(scs.Params{}, o.th[r.ID])
		sat, err := body.Sat(o.tr, i)
		if err != nil {
			t.Fatal(err)
		}
		rob, err := body.Robustness(o.tr, i)
		if err != nil {
			t.Fatal(err)
		}
		if rob < sv.MinRobust {
			sv.MinRobust, sv.WorstRule = rob, r.ID
		}
		if sat {
			continue
		}
		sv.Sat = false
		ante, err := r.Antecedent(scs.Params{}, o.th[r.ID]).Robustness(o.tr, i)
		if err != nil {
			t.Fatal(err)
		}
		if -ante < worst {
			worst, sv.Rule = -ante, r.ID
		}
	}
	legacy := o.legacy.Step(obs)
	if sv.Sat {
		sv.Margin, sv.Rule = sv.MinRobust, sv.WorstRule
	} else {
		sv.Margin, sv.Hazard = worst, legacy.Hazard
	}
	m := math.Abs(sv.Margin)
	return Verdict{
		Alarm: legacy.Alarm, Hazard: legacy.Hazard,
		Margin: sv.Margin, Rule: sv.Rule, Confidence: m / (1 + m),
	}, sv, o.legacy.FiredRules()
}

// randOracleObs is randCAWTObs that also lands exactly on decision
// boundaries — BGT, the derivative tolerance bands and the learnable
// thresholds — so a strict comparison turned non-strict shows.
func randOracleObs(rng *rand.Rand, step int, th scs.Thresholds) Observation {
	o := randCAWTObs(rng, step)
	switch rng.Intn(6) {
	case 0:
		o.CGM = scs.DefaultBGT
	case 1:
		o.BGPrime = scs.DefaultBGDerivEps * float64(1-2*rng.Intn(2))
		o.IOBPrime = scs.DefaultIOBDerivEps * float64(1-2*rng.Intn(2))
	case 2:
		if id := 1 + rng.Intn(len(th)); id == 10 {
			o.CGM = th[id] // rule 10 learns a BG threshold
		} else {
			o.IOB = th[id]
		}
	}
	return o
}

// TestBatchCAWTMatchesPerSession: the batched context-aware monitor and
// its per-session one-lane view must reproduce the independent oracle
// exactly — verdicts, streaming verdicts and fired-rule diagnostics —
// across randomized observation streams, active-lane subsets, staggered
// lane resets, and both threshold modes (CAWT learned / CAWOT default).
func TestBatchCAWTMatchesPerSession(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	rules := scs.TableI()
	learned := scs.Defaults(rules)
	for id, beta := range learned {
		learned[id] = beta + rng.NormFloat64()
	}

	for trial := 0; trial < 20; trial++ {
		width := 1 + rng.Intn(6)
		th := scs.Defaults(rules)
		var batch *BatchContextAware
		newView := func() (*ContextAware, error) { return NewCAWOT(rules, scs.Params{}) }
		var err error
		if trial%2 == 0 {
			batch, err = NewBatchCAWOT(rules, scs.Params{})
		} else {
			th = learned
			batch, err = NewBatchCAWT(rules, learned, scs.Params{})
			newView = func() (*ContextAware, error) { return NewCAWT(rules, learned, scs.Params{}) }
		}
		if err != nil {
			t.Fatal(err)
		}
		batch.ResetLanes(width)
		views := make([]*ContextAware, width)
		oracles := make([]*cawtOracle, width)
		for lane := range views {
			if views[lane], err = newView(); err != nil {
				t.Fatal(err)
			}
			oracles[lane] = newCAWTOracle(t, rules, th)
		}

		lanes := make([]int, 0, width)
		obs := make([]Observation, 0, width)
		out := make([]Verdict, width)
		laneStep := make([]int, width)
		alarms := 0
		for step := 0; step < 80; step++ {
			if rng.Intn(12) == 0 {
				lane := rng.Intn(width)
				batch.ResetLane(lane)
				views[lane].Reset()
				oracles[lane].reset(t)
				laneStep[lane] = 0
			}
			lanes, obs = lanes[:0], obs[:0]
			for lane := 0; lane < width; lane++ {
				if rng.Intn(4) > 0 {
					lanes = append(lanes, lane)
					obs = append(obs, randOracleObs(rng, laneStep[lane], th))
					laneStep[lane]++
				}
			}
			if len(lanes) == 0 {
				continue
			}
			batch.StepBatch(lanes, obs, out)
			for k, lane := range lanes {
				want, wantSV, wantFired := oracles[lane].step(t, obs[k])
				if want.Alarm {
					alarms++
				}
				gotView := views[lane].Step(obs[k])
				viewSV, viewOK := views[lane].StreamVerdict()
				batchSV, batchOK := batch.StreamVerdictLane(lane)
				for _, got := range []struct {
					shape string
					v     Verdict
					sv    scs.StreamVerdict
					ok    bool
					fired []int
				}{
					{"batched", out[k], batchSV, batchOK, batch.FiredRulesLane(lane)},
					{"per-session", gotView, viewSV, viewOK, views[lane].FiredRules()},
				} {
					if got.v != want {
						t.Fatalf("trial %d step %d lane %d: %s %+v, oracle %+v", trial, step, lane, got.shape, got.v, want)
					}
					if !got.ok || got.sv != wantSV {
						t.Fatalf("trial %d step %d lane %d: %s stream verdict (%+v, %v), oracle %+v",
							trial, step, lane, got.shape, got.sv, got.ok, wantSV)
					}
					if !slices.Equal(got.fired, wantFired) {
						t.Fatalf("trial %d step %d lane %d: %s fired %v, oracle %v", trial, step, lane, got.shape, got.fired, wantFired)
					}
				}
			}
		}
		if alarms == 0 {
			t.Fatalf("trial %d: no alarms across randomized contexts — comparison is vacuous", trial)
		}
	}
}

// TestBatchCAWTRecompilesAtObservedCycle: the batched monitor
// recompiles its rule streams when the first observed cycle length
// differs from the construction default, and a lane of that batch
// matches a per-session monitor observing the same cycle length.
func TestBatchCAWTRecompilesAtObservedCycle(t *testing.T) {
	rules := scs.TableI()
	batch, err := NewBatchCAWOT(rules, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	batch.ResetLanes(2)
	ref, err := NewCAWOT(rules, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	out := make([]Verdict, 2)
	for step := 0; step < 20; step++ {
		o := randCAWTObs(rng, step)
		o.CycleMin = 1 // non-default sampling period
		o2 := o
		o2.CGM += 10
		batch.StepBatch([]int{0, 1}, []Observation{o, o2}, out)
		if want := ref.Step(o); out[0] != want {
			t.Fatalf("step %d: batched %+v, per-session %+v at CycleMin=1", step, out[0], want)
		}
	}
	// Before any step, lanes report no streaming verdict.
	batch.ResetLanes(2)
	if _, ok := batch.StreamVerdictLane(0); ok {
		t.Fatal("fresh lane reports a streaming verdict")
	}
}
