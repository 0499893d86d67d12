package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassifyAction(t *testing.T) {
	tests := []struct {
		name  string
		rate  float64
		basal float64
		want  Action
	}{
		{"zero rate is stop", 0, 1.2, ActionStop},
		{"tiny rate is stop", 1e-12, 1.2, ActionStop},
		{"rate at basal keeps", 1.2, 1.2, ActionKeep},
		{"rate within 2pct band keeps", 1.21, 1.2, ActionKeep},
		{"sub-basal rate decreases", 0.8, 1.2, ActionDecrease},
		{"above-basal rate increases", 2.0, 1.2, ActionIncrease},
		{"above zero basal increases", 0.5, 0, ActionIncrease},
		{"stop at zero basal", 0, 0, ActionStop},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyAction(tt.rate, tt.basal); got != tt.want {
				t.Errorf("ClassifyAction(%v, %v) = %v, want %v", tt.rate, tt.basal, got, tt.want)
			}
		})
	}
}

func TestActionStrings(t *testing.T) {
	tests := []struct {
		a     Action
		str   string
		short string
	}{
		{ActionDecrease, "decrease_insulin", "u1"},
		{ActionIncrease, "increase_insulin", "u2"},
		{ActionStop, "stop_insulin", "u3"},
		{ActionKeep, "keep_insulin", "u4"},
		{ActionUnknown, "unknown", "u?"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.str {
			t.Errorf("%d.String() = %q, want %q", tt.a, got, tt.str)
		}
		if got := tt.a.Short(); got != tt.short {
			t.Errorf("%d.Short() = %q, want %q", tt.a, got, tt.short)
		}
	}
}

func TestHazardTypeString(t *testing.T) {
	if HazardH1.String() != "H1" || HazardH2.String() != "H2" || HazardNone.String() != "none" {
		t.Errorf("unexpected hazard strings: %v %v %v", HazardH1, HazardH2, HazardNone)
	}
}

func TestFaultInfoActive(t *testing.T) {
	f := FaultInfo{Name: "max:glucose", StartStep: 10, Duration: 5}
	tests := []struct {
		step int
		want bool
	}{
		{9, false}, {10, true}, {14, true}, {15, false}, {0, false},
	}
	for _, tt := range tests {
		if got := f.Active(tt.step); got != tt.want {
			t.Errorf("Active(%d) = %v, want %v", tt.step, got, tt.want)
		}
	}
	var zero FaultInfo
	if zero.Active(0) {
		t.Error("zero FaultInfo should never be active")
	}
}

func sampleTrace() *Trace {
	tr := &Trace{
		PatientID: "patientA",
		Platform:  "glucosym/openaps",
		InitialBG: 120,
		CycleMin:  5,
		Basal:     1.3,
		Fault: FaultInfo{
			Name: "max:glucose", Kind: "max", Target: "glucose",
			StartStep: 2, Duration: 3, Value: 400,
		},
	}
	for i := 0; i < 10; i++ {
		s := Sample{
			Step: i, TimeMin: float64(i) * 5, BG: 120 + float64(i),
			CGM: 119 + float64(i), IOB: 1.5, Rate: 1.0, Delivered: 1.0,
			Action: ActionKeep,
		}
		if i >= 6 {
			s.Hazard = HazardH2
		}
		if i >= 5 {
			s.Alarm = true
			s.AlarmHazard = HazardH2
		}
		s.FaultActive = tr.Fault.Active(i)
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

func TestTraceAccessors(t *testing.T) {
	tr := sampleTrace()
	if !tr.Faulty() {
		t.Error("trace should be faulty")
	}
	if !tr.Hazardous() {
		t.Error("trace should be hazardous")
	}
	if got := tr.FirstHazardStep(); got != 6 {
		t.Errorf("FirstHazardStep = %d, want 6", got)
	}
	if got := tr.FirstAlarmStep(); got != 5 {
		t.Errorf("FirstAlarmStep = %d, want 5", got)
	}
	if got := tr.DominantHazard(); got != HazardH2 {
		t.Errorf("DominantHazard = %v, want H2", got)
	}
	tth, ok := tr.TimeToHazardMin()
	if !ok {
		t.Fatal("TimeToHazardMin should report a hazard")
	}
	// Hazard at step 6, fault at step 2, 5-minute cycles -> 20 min.
	if tth != 20 {
		t.Errorf("TTH = %v, want 20", tth)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTraceHazardFree(t *testing.T) {
	tr := &Trace{CycleMin: 5}
	for i := 0; i < 3; i++ {
		tr.Samples = append(tr.Samples, Sample{Step: i, BG: 120})
	}
	if tr.Hazardous() {
		t.Error("trace should be hazard-free")
	}
	if got := tr.FirstHazardStep(); got != -1 {
		t.Errorf("FirstHazardStep = %d, want -1", got)
	}
	if got := tr.FirstAlarmStep(); got != -1 {
		t.Errorf("FirstAlarmStep = %d, want -1", got)
	}
	if _, ok := tr.TimeToHazardMin(); ok {
		t.Error("TimeToHazardMin should report no hazard")
	}
	if got := tr.DominantHazard(); got != HazardNone {
		t.Errorf("DominantHazard = %v, want none", got)
	}
}

func TestNegativeTTH(t *testing.T) {
	tr := &Trace{
		CycleMin: 5,
		Fault:    FaultInfo{Name: "hold:iob", StartStep: 8, Duration: 2},
	}
	for i := 0; i < 10; i++ {
		s := Sample{Step: i, BG: 60}
		if i >= 3 {
			s.Hazard = HazardH1
		}
		tr.Samples = append(tr.Samples, s)
	}
	tth, ok := tr.TimeToHazardMin()
	if !ok {
		t.Fatal("expected hazard")
	}
	if tth != -25 {
		t.Errorf("TTH = %v, want -25 (hazard before fault)", tth)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"bad cycle", func(tr *Trace) { tr.CycleMin = 0 }},
		{"nan cycle", func(tr *Trace) { tr.CycleMin = math.NaN() }},
		{"infinite cycle", func(tr *Trace) { tr.CycleMin = math.Inf(1) }},
		{"step mismatch", func(tr *Trace) { tr.Samples[3].Step = 7 }},
		{"nan bg", func(tr *Trace) { tr.Samples[2].BG = math.NaN() }},
		{"negative bg", func(tr *Trace) { tr.Samples[2].BG = -5 }},
		{"negative rate", func(tr *Trace) { tr.Samples[1].Rate = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := sampleTrace()
			tt.mutate(tr)
			if err := tr.Validate(); err == nil {
				t.Error("Validate should have failed")
			}
		})
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.PatientID != tr.PatientID || got.Platform != tr.Platform {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if got.Basal != tr.Basal {
		t.Errorf("basal = %v, want %v", got.Basal, tr.Basal)
	}
	if got.Fault != tr.Fault {
		t.Errorf("fault mismatch: got %+v want %+v", got.Fault, tr.Fault)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("sample count %d, want %d", len(got.Samples), len(tr.Samples))
	}
	for i := range tr.Samples {
		if got.Samples[i] != tr.Samples[i] {
			t.Errorf("sample %d mismatch:\n got %+v\nwant %+v", i, got.Samples[i], tr.Samples[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	const goodMeta = "#meta,a,b,120,5,,,,0,0,0,1.3\n"
	const goodHeader = "step,time_min,bg,cgm,iob,bg_prime,iob_prime," +
		"rate,delivered,action,fault_active,hazard,alarm,alarm_hazard,mitigated\n"
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad meta tag", "nope,a,b,1,5,,,,0,0,0\n"},
		{"short meta", "#meta,a,b\n"},
		{"overlong meta", "#meta,a,b,120,5,,,,0,0,0,1.3,extra\n"},
		{"bad float", "#meta,a,b,xx,5,,,,0,0,0\n"},
		{"bad basal", "#meta,a,b,120,5,,,,0,0,0,xx\n"},
		{"foreign header", goodMeta +
			"time,glucose,insulin,carbs,bolus,basal,temp,iob,cob,tag,a,b,c,d,e\n"},
		{"reordered header", goodMeta +
			"time_min,step,bg,cgm,iob,bg_prime,iob_prime,rate,delivered,action,fault_active,hazard,alarm,alarm_hazard,mitigated\n"},
		{"short header", goodMeta + "step,time_min,bg\n"},
		{"bad record", goodMeta + goodHeader + "0,0,xx,120,1,0,0,1,1,4,false,0,false,0,false\n"},
		{"short record", goodMeta + goodHeader + "0,0,120\n"},
		// Records that parse but describe an inconsistent trace.
		{"negative step", goodMeta + goodHeader + "-1,0,120,120,1,0,0,1,1,4,false,0,false,0,false\n"},
		{"nan cycle", "#meta,a,b,120,NaN,,,,0,0,0,1.3\n" + goodHeader},
		{"infinite cycle", "#meta,a,b,120,+Inf,,,,0,0,0,1.3\n" + goodHeader},
		{"zero cycle", "#meta,a,b,120,0,,,,0,0,0,1.3\n" + goodHeader},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in)); err == nil {
				t.Error("ReadCSV should have failed")
			}
		})
	}
}

// TestReadCSVBackwardCompatMeta: traces written before the basal was
// persisted carry an 11-field meta record; they must still parse, with
// Basal reported as zero.
func TestReadCSVBackwardCompatMeta(t *testing.T) {
	in := "#meta,patientA,glucosym/openaps,120,5,max:glucose,max,glucose,2,3,400\n" +
		"step,time_min,bg,cgm,iob,bg_prime,iob_prime,rate,delivered,action,fault_active,hazard,alarm,alarm_hazard,mitigated\n" +
		"0,0,120,119,1.5,0,0,1,1,4,false,0,false,0,false\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV on v1 meta: %v", err)
	}
	if tr.PatientID != "patientA" || tr.CycleMin != 5 || tr.Fault.Value != 400 {
		t.Errorf("v1 metadata misparsed: %+v", tr)
	}
	if tr.Basal != 0 {
		t.Errorf("v1 meta has no basal; got %v", tr.Basal)
	}
	if len(tr.Samples) != 1 {
		t.Fatalf("%d samples, want 1", len(tr.Samples))
	}
}

// Property: action classification is total — every non-negative
// rate/basal pair maps to exactly one of the four actions consistent
// with the rate's relation to the basal schedule.
func TestClassifyActionProperty(t *testing.T) {
	f := func(rate, basal uint16) bool {
		r := float64(rate) / 100
		b := float64(basal) / 100
		a := ClassifyAction(r, b)
		tol := math.Max(0.02*b, 1e-6)
		switch a {
		case ActionStop:
			return r <= 1e-6
		case ActionKeep:
			return math.Abs(r-b) <= tol && r > 1e-6
		case ActionDecrease:
			return r < b && r > 1e-6
		case ActionIncrease:
			return r > b
		default:
			return false
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CSV round-trip preserves arbitrary samples.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(bg, cgm, iob uint16, action uint8, alarm bool) bool {
		tr := &Trace{PatientID: "p", Platform: "x", CycleMin: 5, InitialBG: 120}
		tr.Samples = []Sample{{
			Step: 0, BG: float64(bg), CGM: float64(cgm),
			IOB: float64(iob) / 100, Action: Action(action % 5),
			Alarm: alarm,
		}}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return len(got.Samples) == 1 && got.Samples[0] == tr.Samples[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReRecordFixtureWithBasal is the re-record path for traces
// serialized with the old 11-field meta (ROADMAP "Re-record bundled
// traces"): parse the legacy fixture, backfill the scheduled basal it
// was recorded under, and re-serialize — the new recording must carry
// the 12-field meta and round-trip Basal exactly, so basal-sensitive
// monitors replay it with the step-0 PrevRate the live loop used.
func TestReRecordFixtureWithBasal(t *testing.T) {
	legacy := "#meta,patientA,glucosym/openaps,120,5,max:glucose,max,glucose,2,3,400\n" +
		"step,time_min,bg,cgm,iob,bg_prime,iob_prime,rate,delivered,action,fault_active,hazard,alarm,alarm_hazard,mitigated\n" +
		"0,0,120,119,1.5,0,0,1,1,4,false,0,false,0,false\n"
	tr, err := ReadCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Basal != 0 {
		t.Fatalf("legacy fixture should read Basal == 0, got %v", tr.Basal)
	}

	// Re-record: backfill the basal the original loop ran at.
	tr.Basal = 1.3
	var buf strings.Builder
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	meta := strings.SplitN(buf.String(), "\n", 2)[0]
	if got := len(strings.Split(meta, ",")); got != 12 {
		t.Fatalf("re-recorded meta has %d fields, want 12: %q", got, meta)
	}

	rec, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Basal != 1.3 {
		t.Fatalf("re-recorded basal %v, want 1.3", rec.Basal)
	}
	if rec.PatientID != tr.PatientID || rec.Fault.Value != 400 || len(rec.Samples) != 1 {
		t.Fatalf("re-record lost metadata: %+v", rec)
	}
}
