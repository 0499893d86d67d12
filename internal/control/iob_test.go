package control

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustExpCurve(t *testing.T) *ExponentialCurve {
	t.Helper()
	c, err := NewExponentialCurve(300, 75)
	if err != nil {
		t.Fatalf("NewExponentialCurve: %v", err)
	}
	return c
}

func TestExponentialCurveValidation(t *testing.T) {
	tests := []struct {
		name      string
		dia, peak float64
	}{
		{"zero dia", 0, 75},
		{"zero peak", 300, 0},
		{"peak at half dia", 300, 150},
		{"peak beyond half dia", 300, 200},
		{"NaN dia", math.NaN(), 75},
		{"NaN peak", 300, math.NaN()},
		{"infinite dia", math.Inf(1), 75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewExponentialCurve(tt.dia, tt.peak); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestExponentialCurveBoundaries(t *testing.T) {
	c := mustExpCurve(t)
	if got := c.IOBFraction(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("IOBFraction(0) = %v, want 1", got)
	}
	if got := c.IOBFraction(300); got > 0.001 {
		t.Errorf("IOBFraction(DIA) = %v, want ~0", got)
	}
	if got := c.IOBFraction(-5); got != 1 {
		t.Errorf("IOBFraction(-5) = %v, want 1", got)
	}
	if got := c.IOBFraction(400); got != 0 {
		t.Errorf("IOBFraction(past DIA) = %v, want 0", got)
	}
	if got := c.Activity(-1); got != 0 {
		t.Errorf("Activity(-1) = %v, want 0", got)
	}
	if got := c.Activity(301); got != 0 {
		t.Errorf("Activity(past DIA) = %v, want 0", got)
	}
	if c.DIA() != 300 {
		t.Errorf("DIA = %v", c.DIA())
	}
}

func TestExponentialCurvePeak(t *testing.T) {
	c := mustExpCurve(t)
	// Activity should peak near the configured 75 minutes.
	best, bestT := 0.0, 0.0
	for tm := 1.0; tm <= 299; tm++ {
		if a := c.Activity(tm); a > best {
			best, bestT = a, tm
		}
	}
	if math.Abs(bestT-75) > 5 {
		t.Errorf("activity peak at %v min, want ~75", bestT)
	}
}

func TestExponentialCurveMonotoneIOB(t *testing.T) {
	c := mustExpCurve(t)
	prev := 1.0
	for tm := 0.0; tm <= 300; tm += 5 {
		f := c.IOBFraction(tm)
		if f > prev+1e-9 {
			t.Fatalf("IOBFraction increased at t=%v: %v > %v", tm, f, prev)
		}
		prev = f
	}
}

func TestExponentialActivityIntegratesToOne(t *testing.T) {
	c := mustExpCurve(t)
	var integral float64
	const h = 0.1
	for tm := 0.0; tm < 300; tm += h {
		integral += c.Activity(tm+h/2) * h
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("activity integral = %v, want ~1", integral)
	}
}

func TestExponentialActivityMatchesIOBDerivative(t *testing.T) {
	c := mustExpCurve(t)
	for tm := 10.0; tm < 290; tm += 20 {
		const h = 0.01
		num := -(c.IOBFraction(tm+h) - c.IOBFraction(tm-h)) / (2 * h)
		if math.Abs(num-c.Activity(tm)) > 1e-3 {
			t.Errorf("at t=%v: -dIOB/dt = %v, Activity = %v", tm, num, c.Activity(tm))
		}
	}
}

func TestBilinearCurve(t *testing.T) {
	if _, err := NewBilinearCurve(0); err == nil {
		t.Error("zero DIA should fail")
	}
	c, err := NewBilinearCurve(240)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.IOBFraction(0); got != 1 {
		t.Errorf("IOBFraction(0) = %v", got)
	}
	if got := c.IOBFraction(240); math.Abs(got) > 1e-9 {
		t.Errorf("IOBFraction(DIA) = %v, want 0", got)
	}
	// Peak at 0.25*DIA = 60.
	if c.Activity(60) <= c.Activity(30) || c.Activity(60) <= c.Activity(120) {
		t.Error("bilinear activity should peak at DIA/4")
	}
	var integral float64
	const h = 0.05
	for tm := 0.0; tm < 240; tm += h {
		integral += c.Activity(tm+h/2) * h
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("bilinear activity integral = %v, want ~1", integral)
	}
	prev := 1.0
	for tm := 0.0; tm <= 240; tm += 2 {
		f := c.IOBFraction(tm)
		if f > prev+1e-9 {
			t.Fatalf("bilinear IOBFraction increased at t=%v", tm)
		}
		prev = f
	}
}

func TestIOBTrackerBasalIsZero(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	for i := 0; i < 100; i++ {
		tr.Record(1.0, 5)
	}
	if iob := tr.IOB(); math.Abs(iob) > 1e-9 {
		t.Errorf("IOB at exact basal = %v, want 0", iob)
	}
}

func TestIOBTrackerAboveBasal(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(13.0, 5) // 1 U net over 5 min
	iob := tr.IOB()
	if iob < 0.9 || iob > 1.0 {
		t.Errorf("IOB just after 1U net dose = %v, want ~1", iob)
	}
	// Decay to ~0 after DIA.
	for i := 0; i < 61; i++ {
		tr.Record(1.0, 5)
	}
	if iob := tr.IOB(); iob > 0.01 {
		t.Errorf("IOB after DIA = %v, want ~0", iob)
	}
}

func TestIOBTrackerBelowBasal(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(0, 30) // suspension: -0.5 U net
	if iob := tr.IOB(); iob > -0.4 {
		t.Errorf("IOB after suspension = %v, want ~-0.5", iob)
	}
}

func TestIOBTrackerActivitySign(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(13, 5)
	tr.Record(1, 60) // let activity develop
	if a := tr.Activity(); a <= 0 {
		t.Errorf("activity after positive dose = %v, want > 0", a)
	}
	tr.Reset()
	tr.Record(0, 60)
	tr.Record(1, 30)
	if a := tr.Activity(); a >= 0 {
		t.Errorf("activity after under-dosing = %v, want < 0", a)
	}
}

func TestIOBTrackerReset(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(10, 5)
	tr.Reset()
	if tr.IOB() != 0 || tr.Now() != 0 {
		t.Error("Reset should clear state")
	}
}

// Property: IOB is bounded by total net units delivered within DIA.
func TestIOBTrackerBoundedProperty(t *testing.T) {
	c := mustExpCurve(t)
	f := func(rates []uint8) bool {
		tr := NewIOBTracker(c, 1.0)
		var maxNet float64
		for _, r := range rates {
			rate := float64(r%80) / 10 // 0..7.9 U/h
			tr.Record(rate, 5)
			net := (rate - 1.0) * 5 / 60
			if net > 0 {
				maxNet += net
			}
		}
		iob := tr.IOB()
		return iob <= maxNet+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// closedForm is the oref0 exponential curve evaluated from scratch: the
// reference the tabulated lookups must reproduce bit for bit.
func closedForm(dia, peak, t float64) (iob, act float64) {
	tau := peak * (1 - peak/dia) / (1 - 2*peak/dia)
	a := 2 * tau / dia
	s := 1 / (1 - a + (1+a)*math.Exp(-dia/tau))
	switch {
	case t < 0:
		iob = 1
	case t > dia:
		iob = 0
	default:
		iob = 1 - s*(1-a)*((t*t/(tau*dia*(1-a))-t/tau-1)*math.Exp(-t/tau)+1)
		iob = math.Min(math.Max(iob, 0), 1)
	}
	if !(t < 0 || t > dia) {
		act = s / (tau * tau) * t * (1 - t/dia) * math.Exp(-t/tau)
	}
	return iob, act
}

func TestExponentialCurveTableMatchesClosedForm(t *testing.T) {
	for _, p := range []struct{ dia, peak float64 }{
		{300, 75}, {299.75, 60}, {180, 55}, {480, 90},
	} {
		c, err := NewExponentialCurve(p.dia, p.peak)
		if err != nil {
			t.Fatal(err)
		}
		if n := int(2*p.dia) + 1; len(c.iobTab) != n || len(c.actTab) != n {
			t.Fatalf("dia %v: tables have %d/%d entries, want %d", p.dia, len(c.iobTab), len(c.actTab), n)
		}
		check := func(age float64) {
			t.Helper()
			wantIOB, wantAct := closedForm(p.dia, p.peak, age)
			if got := c.IOBFraction(age); math.Float64bits(got) != math.Float64bits(wantIOB) {
				t.Errorf("(%v,%v) IOBFraction(%v) = %v, closed form %v", p.dia, p.peak, age, got, wantIOB)
			}
			if got := c.Activity(age); math.Float64bits(got) != math.Float64bits(wantAct) {
				t.Errorf("(%v,%v) Activity(%v) = %v, closed form %v", p.dia, p.peak, age, got, wantAct)
			}
		}
		for i := range c.iobTab {
			check(float64(i) / 2)
		}
		for _, age := range []float64{2.25, p.dia - 0.1, -1, p.dia + 0.5, math.NaN(), math.Copysign(0, -1), 1e300} {
			check(age)
		}
	}
}

func TestGridIndex(t *testing.T) {
	for _, tc := range []struct {
		age float64
		i   int
		ok  bool
	}{
		{0.5, 1, true}, {2.5, 5, true}, {300, 600, true},
		{0, 0, false}, {math.Copysign(0, -1), 0, false}, {2.25, 0, false},
		{-0.5, 0, false}, {300.5, 0, false}, {math.NaN(), 0, false},
		{math.Inf(1), 0, false},
	} {
		i, ok := gridIndex(tc.age, 601)
		if ok != tc.ok || (ok && i != tc.i) {
			t.Errorf("gridIndex(%v) = %d, %v; want %d, %v", tc.age, i, ok, tc.i, tc.ok)
		}
	}
}

func TestNewExponentialCurveShared(t *testing.T) {
	a, b := mustExpCurve(t), mustExpCurve(t)
	if a != b {
		t.Error("NewExponentialCurve(300, 75) returned two curves")
	}
	other, err := NewExponentialCurve(300, 60)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("different peaks share a curve")
	}
	// 8 goroutines ask at once, for the default pair and for a pair
	// no other test builds; each must see one curve.
	for _, p := range [][2]float64{{300, 75}, {333.5, 71}} {
		var wg sync.WaitGroup
		start := make(chan struct{})
		got := make([]*ExponentialCurve, 8)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c, err := NewExponentialCurve(p[0], p[1])
				if err != nil {
					t.Error(err)
				}
				got[g] = c
			}()
		}
		close(start)
		wg.Wait()
		for g, c := range got {
			if c == nil || c != got[0] {
				t.Fatalf("(%v,%v): goroutine %d got %p, goroutine 0 got %p", p[0], p[1], g, c, got[0])
			}
		}
	}
}

func TestExponentialCurveLongDIAUntabulated(t *testing.T) {
	c, err := NewExponentialCurve(maxTabulatedDIA+1, 75)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.iobTab) != 0 || len(c.actTab) != 0 {
		t.Fatalf("tables of %d/%d entries past maxTabulatedDIA", len(c.iobTab), len(c.actTab))
	}
	want, _ := closedForm(maxTabulatedDIA+1, 75, 100)
	if got := c.IOBFraction(100); got != want {
		t.Errorf("IOBFraction(100) = %v, closed form %v", got, want)
	}
}

// TestIOBTrackerMatchesUnprunedReference drives the tracker with random
// rates and cycle lengths (on and off the half-minute grid) against a
// reference that keeps every dose, filters by age on each query and
// evaluates the closed form: prefix pruning and table lookups together
// must leave IOB and Activity bit-identical.
func TestIOBTrackerMatchesUnprunedReference(t *testing.T) {
	const dia, peak = 300.0, 75.0
	c, err := NewExponentialCurve(dia, peak)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, cycles := range [][]float64{{5}, {3, 0.5, 10}, {0.7, 5, 2.3}} {
		tr := NewIOBTracker(c, 1.2)
		var all []dose
		var now float64
		for step := 0; step < 400; step++ {
			dt := cycles[rng.Intn(len(cycles))]
			rate := 4 * rng.Float64()
			tr.Record(rate, dt)
			all = append(all, dose{timeMin: now + dt/2, units: (rate - 1.2) * dt / 60})
			now += dt
			var wantIOB, wantAct float64
			for _, d := range all {
				if now-d.timeMin <= dia {
					iob, act := closedForm(dia, peak, now-d.timeMin)
					wantIOB += d.units * iob
					wantAct += d.units * act
				}
			}
			if got := tr.IOB(); math.Float64bits(got) != math.Float64bits(wantIOB) {
				t.Fatalf("cycles %v step %d: IOB %v, reference %v", cycles, step, got, wantIOB)
			}
			if got := tr.Activity(); math.Float64bits(got) != math.Float64bits(wantAct) {
				t.Fatalf("cycles %v step %d: Activity %v, reference %v", cycles, step, got, wantAct)
			}
		}
		if max := int(dia/0.5) + 1; len(tr.doses) > max {
			t.Errorf("cycles %v: %d doses kept, at most %d can be live", cycles, len(tr.doses), max)
		}
	}
}
