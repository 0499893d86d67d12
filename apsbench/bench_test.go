package main

// Harness self-test: every workload at toy size through the same code
// the benchmark runs.
//
//	cd apsbench && go test ./...
//
// Under -race the paper subtests report the shared-MLP data race that
// the paper workload's Table VII MLP check surfaces (see check.go); the
// rest run clean:
//
//	go test -race -run 'EveryMetricPrints/(fleet|serve)|Corrupted|TracedEquals' ./...

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func toyRun(t *testing.T, workload string, trace bool, ref map[string]string) result {
	t.Helper()
	rep, err := workloads[workload](options{workload: workload, seed: 3, seconds: 0.001, trace: trace, toy: true, ref: ref})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return rep.result()
}

// TestEveryMetricPrints runs each workload untraced and traced and
// checks that every metric BENCHMARK.json names is reported, with its
// unit, and that no unexpected check fails.
func TestEveryMetricPrints(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
			}
			for _, trace := range []bool{false, true} {
				res := toyRun(t, w.Name, trace, nil)
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
					}
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
			}
		})
	}
}

// TestCorruptedReferenceFails checks that a reference with one altered
// item is counted as a failure and makes the run incorrect.
func TestCorruptedReferenceFails(t *testing.T) {
	opt := options{workload: "fleet", seed: 3, toy: true}
	ref, err := computeReference(opt)
	if err != nil {
		t.Fatal(err)
	}
	clean := toyRun(t, "fleet", false, ref)
	if clean.Failed != 0 || !clean.Correct {
		t.Fatalf("clean reference: %+v", clean)
	}
	bad := make(map[string]string, len(ref))
	for k, v := range ref {
		bad[k] = v
	}
	bad["result"] += " corrupted"
	res := toyRun(t, "fleet", false, bad)
	if res.Failed != 1 || res.Correct || res.Attempted != clean.Attempted {
		t.Errorf("corrupted reference: correct=%v attempted=%d failed=%d, want one failure of %d",
			res.Correct, res.Attempted, res.Failed, clean.Attempted)
	}
}

// TestTracedEqualsUntraced checks that the decorators leave the checked
// outputs bit-identical.
func TestTracedEqualsUntraced(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		in := fleetInputsFor(options{seed: 3, toy: true})
		_, plain, err := fleetRun(in, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		lay := &layers{}
		_, traced, err := fleetRun(in, 2, lay)
		if err != nil {
			t.Fatal(err)
		}
		sameItems(t, plain, traced)
		if tot := lay.totals(); tot.control.calls == 0 || tot.sim.work == 0 || tot.monitor.work == 0 || tot.sink.calls == 0 {
			t.Errorf("a decorated layer saw no work: %+v", tot)
		}
	})
	t.Run("paper", func(t *testing.T) {
		// Parallel 1: the per-session MLP monitors race at Parallel > 1.
		in := paperInputsFor(options{seed: 3, toy: true})
		plain, err := paperPipeline(in, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		lay := &layers{}
		in.platform = experimentPlatform(lay, in.platform)
		traced, err := paperPipeline(in, 1, newSpans())
		if err != nil {
			t.Fatal(err)
		}
		plain.digestTraces()
		traced.digestTraces()
		sameItems(t, plain.items, traced.items)
		if tot := lay.totals(); tot.control.calls == 0 || tot.sim.work == 0 {
			t.Errorf("a decorated layer saw no work: %+v", tot)
		}
	})
}

func sameItems(t *testing.T, a, b map[string]string) {
	t.Helper()
	for _, k := range unionKeys(a, b) {
		if a[k] != b[k] {
			t.Errorf("item %s: untraced %q, traced %q", k, a[k], b[k])
		}
	}
}
