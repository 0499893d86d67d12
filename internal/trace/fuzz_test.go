package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/trace"
)

// fuzzSeedTrace is a short recorded trace with a fault window, hazard
// and alarms, written through WriteCSV as the fuzzer's well-formed seed.
func fuzzSeedTrace() *trace.Trace {
	tr := &trace.Trace{
		PatientID: "glucosym-0", Platform: "glucosym/openaps",
		InitialBG: 120, CycleMin: 5, Basal: 1.3,
		Fault: trace.FaultInfo{Name: "max:glucose", Kind: "max", Target: "glucose", StartStep: 2, Duration: 3, Value: 400},
	}
	for i := 0; i < 8; i++ {
		s := trace.Sample{
			Step: i, TimeMin: float64(i) * 5, BG: 150 + 20*float64(i), CGM: 148 + 20*float64(i),
			IOB: 1.5 - 0.1*float64(i), BGPrime: 4, IOBPrime: -0.02, Rate: 1.3, Delivered: 1.3,
			Action: trace.ActionKeep, FaultActive: tr.Fault.Active(i),
		}
		if i >= 5 {
			s.Hazard = trace.HazardH2
			s.Alarm, s.AlarmHazard = true, trace.HazardH2
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// FuzzReadCSV: the trace CSV reader fails closed. Every input either
// errors or yields a trace that passes Validate and goes through
// training-set construction and monitor replay without a panic.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzSeedTrace().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	const header = "step,time_min,bg,cgm,iob,bg_prime,iob_prime," +
		"rate,delivered,action,fault_active,hazard,alarm,alarm_hazard,mitigated\n"
	for _, forged := range []string{
		"#meta,a,b,120,5,,,,0,0,0,1.3\n" + header + "-1,0,120,120,1,0,0,1,1,4,false,0,false,0,false\n",
		"#meta,a,b,120,NaN,,,,0,0,0,1.3\n" + header + "0,0,120,120,1,0,0,1,1,4,false,0,false,0,false\n",
		"#meta,a,b,120,+Inf,,,,0,0,0,1.3\n" + header,
		"#meta,a,b,120,5,,,,0,0,0\n" + header + "0,0,120,120,1,0,0,1,1,9,false,7,true,-2,false\n",
	} {
		f.Add([]byte(forged))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid trace: %v", err)
		}
		traces := []*trace.Trace{tr}
		monitor.TrainingData(traces, true)
		windows := monitor.NewSequenceWindows(traces, 3, true)
		for k := 0; k < windows.Len(); k++ {
			windows.At(k)
		}
		cawot, err := monitor.NewCAWOT(scs.TableI(), scs.Params{})
		if err != nil {
			t.Fatal(err)
		}
		monitor.Replay(cawot, tr)
	})
}
