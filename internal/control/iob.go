// Package control defines the APS controller abstraction shared by the
// OpenAPS-style and Basal-Bolus controllers, plus the insulin-on-board
// (IOB) bookkeeping both the controllers and the safety monitors use.
package control

import (
	"fmt"
	"math"
	"sync"
)

// InsulinCurve models the residual fraction of an insulin dose that is
// still active t minutes after delivery (1 at t=0 decaying to 0 at the
// duration of insulin action), and the corresponding activity density.
type InsulinCurve interface {
	// IOBFraction returns the remaining active fraction at age t minutes.
	IOBFraction(tMin float64) float64
	// Activity returns the instantaneous activity density (fraction per
	// minute) at age t minutes; the integral of Activity over [0, DIA]
	// is 1.
	Activity(tMin float64) float64
	// DIA returns the duration of insulin action in minutes.
	DIA() float64
}

// ExponentialCurve is the oref0 exponential insulin activity model with a
// configurable peak time and duration of insulin action.
//
// NewExponentialCurve memoises one curve per (DIA, peak) for the whole
// process, so every controller and monitor-side tracker in every fleet
// shard shares it. A curve is read-only after construction; that is what
// makes the sharing safe without a lock.
//
// Each curve holds IOBFraction and Activity tables on the half-minute
// grid t = i/2, i = 0..⌊2·DIA⌋, filled by the closed form itself. A
// lookup reads table[i] only when 2t is exactly the integer i. Doubling
// is exact in binary floating point, so then t == i/2 and the entry is
// bit-for-bit the formula's value at t. Every other age (off the grid,
// at or below zero, past the table, NaN) evaluates the formula. Dose
// ages are on the grid whenever the control cycle is a whole number of
// half-minutes: the tracker clock advances by the cycle and each dose
// sits at its interval's midpoint.
type ExponentialCurve struct {
	dia  float64 // duration of insulin action, min
	peak float64 // activity peak time, min
	tau  float64
	a    float64
	s    float64

	iobTab []float64 // iobFraction(i/2)
	actTab []float64 // activity(i/2)
}

var _ InsulinCurve = (*ExponentialCurve)(nil)

// maxTabulatedDIA bounds the table size (2·DIA+1 entries per table). A
// longer action time than a day is not physiological; such a curve
// keeps empty tables and always evaluates the formula.
const maxTabulatedDIA = 24 * 60

// expCurves memoises NewExponentialCurve per (dia, peak).
var (
	expCurvesMu sync.Mutex
	expCurves   = map[[2]float64]*ExponentialCurve{}
)

// NewExponentialCurve returns the shared oref0 exponential curve for the
// pair. Typical values: dia 300 min, peak 75 min (rapid-acting insulin).
// Both must be finite, with 0 < peak < dia/2.
func NewExponentialCurve(diaMin, peakMin float64) (*ExponentialCurve, error) {
	if !(diaMin > 0 && peakMin > 0 && peakMin < diaMin/2) || math.IsInf(diaMin, 1) {
		return nil, fmt.Errorf("control: invalid curve dia=%v peak=%v (need finite 0 < peak < dia/2)", diaMin, peakMin)
	}
	key := [2]float64{diaMin, peakMin}
	expCurvesMu.Lock()
	defer expCurvesMu.Unlock()
	if c, ok := expCurves[key]; ok {
		return c, nil
	}
	tau := peakMin * (1 - peakMin/diaMin) / (1 - 2*peakMin/diaMin)
	a := 2 * tau / diaMin
	s := 1 / (1 - a + (1+a)*math.Exp(-diaMin/tau))
	c := &ExponentialCurve{dia: diaMin, peak: peakMin, tau: tau, a: a, s: s}
	if diaMin <= maxTabulatedDIA {
		n := int(2*diaMin) + 1
		c.iobTab = make([]float64, n)
		c.actTab = make([]float64, n)
		for i := range n {
			t := float64(i) / 2
			c.iobTab[i] = c.iobFraction(t)
			c.actTab[i] = c.activity(t)
		}
	}
	expCurves[key] = c
	return c, nil
}

// gridIndex returns i when t == i/2 exactly and i indexes a table of n
// entries. Zero is left to the formula: 2·(-0) == 0 would map -0 onto
// the +0 entry, and Activity(-0) is -0.
func gridIndex(t float64, n int) (int, bool) {
	x := 2 * t
	if !(x > 0 && x < float64(n)) {
		return 0, false
	}
	i := int(x)
	return i, float64(i) == x
}

// DIA implements InsulinCurve.
func (c *ExponentialCurve) DIA() float64 { return c.dia }

// Activity implements InsulinCurve.
func (c *ExponentialCurve) Activity(t float64) float64 {
	if i, ok := gridIndex(t, len(c.actTab)); ok {
		return c.actTab[i]
	}
	return c.activity(t)
}

// IOBFraction implements InsulinCurve.
func (c *ExponentialCurve) IOBFraction(t float64) float64 {
	if i, ok := gridIndex(t, len(c.iobTab)); ok {
		return c.iobTab[i]
	}
	return c.iobFraction(t)
}

// activity is the closed-form activity density.
func (c *ExponentialCurve) activity(t float64) float64 {
	if t < 0 || t > c.dia {
		return 0
	}
	return c.s / (c.tau * c.tau) * t * (1 - t/c.dia) * math.Exp(-t/c.tau)
}

// iobFraction is the closed-form remaining active fraction.
func (c *ExponentialCurve) iobFraction(t float64) float64 {
	if t < 0 {
		return 1
	}
	if t > c.dia {
		return 0
	}
	f := 1 - c.s*(1-c.a)*((t*t/(c.tau*c.dia*(1-c.a))-t/c.tau-1)*math.Exp(-t/c.tau)+1)
	// Guard the tail against floating-point underrun.
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// BilinearCurve is the legacy bilinear IOB model: activity rises linearly
// to a peak at 0.25·DIA and falls linearly to zero at DIA.
type BilinearCurve struct {
	dia float64
}

var _ InsulinCurve = (*BilinearCurve)(nil)

// NewBilinearCurve builds a bilinear curve with the given duration of
// insulin action in minutes.
func NewBilinearCurve(diaMin float64) (*BilinearCurve, error) {
	if diaMin <= 0 {
		return nil, fmt.Errorf("control: invalid bilinear dia %v", diaMin)
	}
	return &BilinearCurve{dia: diaMin}, nil
}

// DIA implements InsulinCurve.
func (c *BilinearCurve) DIA() float64 { return c.dia }

// Activity implements InsulinCurve.
func (c *BilinearCurve) Activity(t float64) float64 {
	if t < 0 || t > c.dia {
		return 0
	}
	peak := 0.25 * c.dia
	// Triangle with unit area: height = 2/dia.
	h := 2 / c.dia
	if t <= peak {
		return h * t / peak
	}
	return h * (c.dia - t) / (c.dia - peak)
}

// IOBFraction implements InsulinCurve.
func (c *BilinearCurve) IOBFraction(t float64) float64 {
	if t < 0 {
		return 1
	}
	if t > c.dia {
		return 0
	}
	peak := 0.25 * c.dia
	h := 2 / c.dia
	if t <= peak {
		// 1 - integral of rising edge.
		return 1 - h*t*t/(2*peak)
	}
	rising := h * peak / 2
	fallT := t - peak
	fallW := c.dia - peak
	fallArea := h*fallT - h*fallT*fallT/(2*fallW)
	f := 1 - rising - fallArea
	if f < 0 {
		return 0
	}
	return f
}

// dose is one net insulin delivery event relative to the scheduled basal.
type dose struct {
	timeMin float64
	units   float64 // net units (can be negative when below basal)
}

// IOBTracker accumulates insulin deliveries and reports net IOB and
// activity relative to the patient's scheduled basal rate, the same
// "net IOB" convention OpenAPS uses. Doses older than the curve's DIA
// are pruned.
type IOBTracker struct {
	curve InsulinCurve
	basal float64 // scheduled basal, U/h
	doses []dose
	now   float64
}

// NewIOBTracker returns a tracker using the given activity curve and
// scheduled basal rate (U/h).
func NewIOBTracker(curve InsulinCurve, basalUPerH float64) *IOBTracker {
	return &IOBTracker{curve: curve, basal: basalUPerH}
}

// Record adds a delivery of rate U/h sustained for dtMin minutes ending
// at the tracker's current time plus dtMin, then advances the clock.
// dtMin must not be negative, so that doses stay in time order.
func (t *IOBTracker) Record(rateUPerH, dtMin float64) {
	net := (rateUPerH - t.basal) * dtMin / 60 // net units over the interval
	// Attribute the dose to the midpoint of the interval.
	t.doses = append(t.doses, dose{timeMin: t.now + dtMin/2, units: net})
	t.now += dtMin
	t.prune()
}

// prune drops the expired doses. Record appends in time order and
// RestoreState rejects any other order, so the expired doses are a
// prefix; it is removed in place.
func (t *IOBTracker) prune() {
	dia := t.curve.DIA()
	k := 0
	for k < len(t.doses) && !(t.now-t.doses[k].timeMin <= dia) {
		k++
	}
	if k > 0 {
		t.doses = t.doses[:copy(t.doses, t.doses[k:])]
	}
}

// IOB returns the current net insulin on board in units. Positive values
// mean insulin above the scheduled basal is still active; negative values
// mean the patient has been under-dosed relative to basal.
func (t *IOBTracker) IOB() float64 {
	var sum float64
	for _, d := range t.doses {
		sum += d.units * t.curve.IOBFraction(t.now-d.timeMin)
	}
	return sum
}

// Activity returns the current net insulin activity in U/min.
func (t *IOBTracker) Activity() float64 {
	var sum float64
	for _, d := range t.doses {
		sum += d.units * t.curve.Activity(t.now-d.timeMin)
	}
	return sum
}

// Now returns the tracker clock in minutes.
func (t *IOBTracker) Now() float64 { return t.now }

// Reset clears history and rewinds the clock.
func (t *IOBTracker) Reset() {
	t.doses = t.doses[:0]
	t.now = 0
}
