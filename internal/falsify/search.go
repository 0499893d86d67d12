package falsify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/closedloop"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/optimize"
	"repro/internal/scs"
)

// Config parameterizes one falsification search.
type Config struct {
	// Space is the scenario parameter space to search.
	Space Space
	// Platform is the closed-loop test bed; Patient indexes its cohort.
	Platform experiment.Platform
	Patient  int
	// Steps is the run horizon in control cycles (default 150);
	// CycleMin the cycle length in minutes (default 5).
	Steps    int
	CycleMin float64
	// Seed drives the random exploration stage; a fixed seed makes the
	// whole search deterministic.
	Seed int64
	// Samples is the random-exploration budget (default 32).
	Samples int
	// Refine is how many of the hardest random seeds continue into
	// coordinate descent (default 3).
	Refine int
	// Sweeps bounds coordinate-descent passes per refined seed
	// (default 2); each sweep probes every coordinate at a shrinking
	// step.
	Sweeps int
	// Polish runs a projected-L-BFGS pass (finite-difference gradients,
	// bounds from the space) over the continuous FieldValue coordinates
	// of the best point. Integer coordinates stay fixed; spaces without
	// FieldValue parameters skip the stage.
	Polish bool
	// Keep bounds the corpus size (default 16).
	Keep int
	// NewMonitor builds the margin-reporting safety monitor; the
	// default is the streaming CAWOT over the paper's Table I rules.
	NewMonitor func() (monitor.Monitor, error)
}

func (c Config) withDefaults() (Config, error) {
	if err := c.Space.Validate(); err != nil {
		return c, err
	}
	if c.Platform.NewPatient == nil || c.Platform.NewController == nil {
		return c, fmt.Errorf("falsify: config has no platform")
	}
	if c.Patient < 0 || c.Patient >= c.Platform.NumPatients {
		return c, fmt.Errorf("falsify: patient %d outside %s cohort of %d", c.Patient, c.Platform.Name, c.Platform.NumPatients)
	}
	if c.Steps == 0 {
		c.Steps = 150
	}
	if c.Steps < 1 {
		return c, fmt.Errorf("falsify: invalid step count %d", c.Steps)
	}
	if c.CycleMin == 0 {
		c.CycleMin = 5
	}
	if c.CycleMin <= 0 {
		return c, fmt.Errorf("falsify: invalid cycle length %v", c.CycleMin)
	}
	if c.Samples == 0 {
		c.Samples = 32
	}
	if c.Samples < 1 {
		return c, fmt.Errorf("falsify: invalid sample budget %d", c.Samples)
	}
	if c.Refine == 0 {
		c.Refine = 3
	}
	if c.Sweeps == 0 {
		c.Sweeps = 2
	}
	if c.Keep == 0 {
		c.Keep = 16
	}
	if c.NewMonitor == nil {
		c.NewMonitor = func() (monitor.Monitor, error) {
			return monitor.Checked(monitor.NewCAWOT(scs.TableI(), scs.Params{}))
		}
	}
	return c, nil
}

// marginRecorder wraps the safety monitor and records the running
// minimum of its reported robustness margins — the falsification
// objective — without changing any verdict the loop sees.
type marginRecorder struct {
	inner  monitor.Monitor
	min    float64
	step   int
	alarms int
}

func newMarginRecorder(inner monitor.Monitor) *marginRecorder {
	return &marginRecorder{inner: inner, min: math.Inf(1), step: -1}
}

// Name implements closedloop.Monitor.
func (r *marginRecorder) Name() string { return r.inner.Name() }

// Reset implements closedloop.Monitor.
func (r *marginRecorder) Reset() {
	r.inner.Reset()
	r.min, r.step, r.alarms = math.Inf(1), -1, 0
}

// Step implements closedloop.Monitor, forwarding the verdict verbatim.
func (r *marginRecorder) Step(obs closedloop.Observation) closedloop.Verdict {
	v := r.inner.Step(obs)
	if v.Margin < r.min {
		r.min, r.step = v.Margin, obs.Step
	}
	if v.Alarm {
		r.alarms++
	}
	return v
}

// EvalProgram runs one scenario program through the configured closed
// loop and reports its margin summary. It is the search objective and
// the replay primitive: the run is deterministic, so re-evaluating a
// corpus entry reproduces its recorded MinMargin exactly.
func EvalProgram(cfg Config, prog fault.Program) (Eval, error) {
	if err := prog.Validate(); err != nil {
		return Eval{}, err
	}
	c, err := cfg.fill()
	if err != nil {
		return Eval{}, err
	}
	return c.eval(prog, nil)
}

// fill applies defaults without requiring a searchable space, for
// replay-only uses.
func (c Config) fill() (Config, error) {
	tmp := c
	tmp.Space = Space{
		Base:   fault.Program{Segments: []fault.Segment{{Kind: fault.SegInitBG, Value: 120}}},
		Params: []Param{{Seg: 0, Field: FieldValue, Lo: 120, Hi: 120}},
	}
	tmp, err := tmp.withDefaults()
	if err != nil {
		return tmp, err
	}
	tmp.Space = c.Space
	return tmp, nil
}

// eval compiles and runs one instantiated program.
func (c Config) eval(prog fault.Program, x []float64) (Eval, error) {
	plan, err := prog.Compile(c.Steps, c.CycleMin)
	if err != nil {
		return Eval{}, err
	}
	patient, err := c.Platform.NewPatient(c.Patient)
	if err != nil {
		return Eval{}, err
	}
	ctrl, err := c.Platform.NewController(patient.Basal())
	if err != nil {
		return Eval{}, err
	}
	mon, err := c.NewMonitor()
	if err != nil {
		return Eval{}, err
	}
	rec := newMarginRecorder(mon)
	tr, err := closedloop.Run(closedloop.Config{
		Platform:   c.Platform.Name + "/falsify",
		Steps:      c.Steps,
		CycleMin:   c.CycleMin,
		Patient:    patient,
		Controller: ctrl,
		Plan:       plan,
		Monitor:    rec,
	})
	if err != nil {
		return Eval{}, err
	}
	return Eval{
		Program:   prog,
		Text:      prog.Key(),
		X:         append([]float64(nil), x...),
		MinMargin: rec.min,
		MinStep:   rec.step,
		Alarms:    rec.alarms,
		Hazard:    tr.Hazardous(),
	}, nil
}

// Search runs the falsification loop: random exploration, coordinate
// descent from the hardest seeds, and an optional L-BFGS polish. The
// returned corpus is ranked hardest-first and never empty on a nil
// error.
func Search(cfg Config) (*Corpus, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	corpus := newCorpus(cfg.Keep)
	corpus.Platform, corpus.Patient, corpus.Steps, corpus.Seed = cfg.Platform.Name, cfg.Patient, cfg.Steps, cfg.Seed

	try := func(x []float64) (Eval, bool) {
		prog, err := cfg.Space.Instantiate(x)
		if err != nil {
			corpus.Skipped++
			return Eval{}, false
		}
		ev, err := cfg.eval(prog, x)
		if err != nil {
			corpus.Skipped++
			return Eval{}, false
		}
		corpus.Visited++
		corpus.add(ev)
		return ev, true
	}

	// Stage 1: uniform random exploration over the box.
	for i := 0; i < cfg.Samples; i++ {
		x := make([]float64, len(cfg.Space.Params))
		for j, p := range cfg.Space.Params {
			x[j] = p.Lo + rng.Float64()*(p.Hi-p.Lo)
		}
		try(x)
	}
	if len(corpus.Evals) == 0 {
		return nil, fmt.Errorf("falsify: no valid scenario in %d samples (all instantiations rejected)", cfg.Samples)
	}

	// Stage 2: coordinate descent from the hardest random seeds.
	for _, seed := range corpus.Top(cfg.Refine) {
		cur := seed
		if cur.X == nil {
			continue
		}
		for sweep := 0; sweep < cfg.Sweeps; sweep++ {
			frac := 0.25 / float64(uint(1)<<uint(sweep))
			improved := false
			for j, p := range cfg.Space.Params {
				span := (p.Hi - p.Lo) * frac
				if span == 0 {
					continue
				}
				for _, cand := range []float64{cur.X[j] - span, cur.X[j] + span} {
					x := append([]float64(nil), cur.X...)
					x[j] = clamp(cand, p.Lo, p.Hi)
					if ev, ok := try(x); ok && ev.MinMargin < cur.MinMargin {
						cur, improved = ev, true
					}
				}
			}
			if !improved && sweep > 0 {
				break
			}
		}

		// Stage 3: polish the continuous coordinates with projected
		// L-BFGS; the integer window coordinates stay fixed (the
		// objective is piecewise constant in them).
		if cfg.Polish && cur.X != nil {
			polish(cfg, corpus, cur, try)
		}
	}
	return corpus, nil
}

// polish refines the FieldValue coordinates of one point with the
// bound-constrained quasi-Newton solver from internal/optimize.
func polish(cfg Config, corpus *Corpus, cur Eval, try func([]float64) (Eval, bool)) {
	var idx []int
	for j, p := range cfg.Space.Params {
		if p.Field == FieldValue && p.Hi > p.Lo {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return
	}
	x0 := make([]float64, len(idx))
	lo := make([]float64, len(idx))
	hi := make([]float64, len(idx))
	for i, j := range idx {
		x0[i] = cur.X[j]
		lo[i] = cfg.Space.Params[j].Lo
		hi[i] = cfg.Space.Params[j].Hi
	}
	expand := func(sub []float64) []float64 {
		x := append([]float64(nil), cur.X...)
		for i, j := range idx {
			x[j] = clamp(sub[i], lo[i], hi[i])
		}
		return x
	}
	const rejected = 1e6 // finite sentinel: invalid points must not poison the line search
	res, err := optimize.Minimize(optimize.Problem{
		F: func(sub []float64) float64 {
			prog, err := cfg.Space.Instantiate(expand(sub))
			if err != nil {
				return rejected
			}
			ev, err := cfg.eval(prog, nil)
			if err != nil {
				return rejected
			}
			return ev.MinMargin
		},
		Lower: lo,
		Upper: hi,
	}, x0, optimize.Options{MaxIterations: 12, Memory: 5})
	if err != nil {
		return
	}
	try(expand(res.X))
}
