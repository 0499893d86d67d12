package experiment

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stllearn"
)

var updateGolden = flag.Bool("update", false, "rewrite the paper-results golden fixture")

// g formats a float exactly: the shortest decimal that round-trips.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeConfusion(b *strings.Builder, label string, c metrics.Confusion) {
	fmt.Fprintf(b, "  %s TP=%d FP=%d FN=%d TN=%d\n", label, c.TP, c.FP, c.FN, c.TN)
}

// paperResults runs the thinned paper pipeline — campaign, suite
// training, Tables V/VI (every monitor), Table VII (CAWT, DT, MLP, MPC),
// Table VIII and Figs. 7-9 — on at most parallel workers and prints
// every reproduced number exactly. Step timings are wall-clock and left
// out.
func paperResults(t *testing.T, parallel int) string {
	t.Helper()
	plat := Glucosym()
	traces := quickCampaign(t, plat, parallel)
	folds := stllearn.Folds(traces, 4)
	train := stllearn.TrainingSet(folds, 0)
	test := folds[0]
	ff, err := FaultFree(plat, []int{0, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := BuildSuite(plat, train, ff, quickSuiteConfig)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	b.WriteString("Tables V/VI\n")
	evals, err := suite.EvaluateAll(nil, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		fmt.Fprintf(&b, "%s\n", e.Monitor)
		writeConfusion(&b, "sample", e.Sample)
		writeConfusion(&b, "simulation", e.Simulation)
		fmt.Fprintf(&b, "  reaction count=%d mean=%s std=%s early=%s\n",
			e.Reaction.Count, g(e.Reaction.MeanMin), g(e.Reaction.StdMin), g(e.Reaction.EarlyRate))
		ids := make([]int, 0, len(e.RuleAttribution))
		for id := range e.RuleAttribution {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		b.WriteString("  rules")
		for _, id := range ids {
			fmt.Fprintf(&b, " %d:%d", id, e.RuleAttribution[id])
		}
		fmt.Fprintf(&b, "\n  margins alarm=%s safe=%s samples=%d\n",
			g(e.MeanAlarmMargin), g(e.MeanSafeMargin), e.MarginSamples)
	}

	b.WriteString("Table VII\n")
	scen := ScenarioSubset(60)
	baseline, err := Run(CampaignConfig{Platform: plat, Patients: []int{0}, Scenarios: scen, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"CAWT", "DT", "MLP", "MPC"} {
		res, err := suite.EvaluateMitigation(name, baseline, CampaignConfig{
			Patients: []int{0}, Scenarios: scen, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := res.Outcome
		fmt.Fprintf(&b, "  %s baseline=%d prevented=%d new=%d recovery=%s risk=%s\n",
			res.Monitor, o.BaselineHazards, o.Prevented, o.NewHazards, g(o.RecoveryRate), g(o.AverageRisk))
	}

	b.WriteString("Table VIII\n")
	rows, err := suite.TableVIII(test, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\n", r.Patient)
		writeConfusion(&b, "specific", r.Specific.Sample)
		fmt.Fprintf(&b, "  specific early=%s\n", g(r.Specific.Reaction.EarlyRate))
		writeConfusion(&b, "population", r.Pop.Sample)
		fmt.Fprintf(&b, "  population early=%s\n", g(r.Pop.Reaction.EarlyRate))
	}

	b.WriteString("Fig 7a\n")
	cov := HazardCoverageByPatient(traces)
	for i, id := range cov.Patients {
		fmt.Fprintf(&b, "  %s %s\n", id, g(cov.Coverage[i]))
	}
	fmt.Fprintf(&b, "  overall %s\n", g(cov.Overall))

	b.WriteString("Fig 7b\n")
	tth := TTHDistribution(traces)
	fmt.Fprintf(&b, "  count=%d mean=%s median=%s min=%s max=%s negative=%s\n  values",
		tth.Count, g(tth.MeanMin), g(tth.MedianMin), g(tth.MinMin), g(tth.MaxMin), g(tth.NegativeFrac))
	for _, v := range tth.Values {
		fmt.Fprintf(&b, " %s", g(v))
	}
	b.WriteString("\n")

	b.WriteString("Fig 8\n")
	fig8 := CoverageByFaultAndBG(traces)
	b.WriteString("  initial-bg")
	for _, bg := range fig8.InitialBG {
		fmt.Fprintf(&b, " %s", g(bg))
	}
	b.WriteString("\n")
	for i, name := range fig8.Faults {
		fmt.Fprintf(&b, "  %s", name)
		for _, c := range fig8.Coverage[i] {
			fmt.Fprintf(&b, " %s", g(c))
		}
		b.WriteString("\n")
	}

	b.WriteString("Fig 9\n")
	for _, e := range evals {
		fmt.Fprintf(&b, "  %s mean=%s std=%s early=%s\n",
			e.Monitor, g(e.Reaction.MeanMin), g(e.Reaction.StdMin), g(e.Reaction.EarlyRate))
	}
	return b.String()
}

// TestPaperResultsGolden pins the reproduced paper numbers: a thinned
// suite pipeline must print exactly the checked-in fixture at Parallel
// 1, 2 and 4, each run with GOMAXPROCS set to the same width (the
// monitor replay and suite training spread over GOMAXPROCS), so neither
// a refactor of the monitors, models or engine nor the worker count can
// move a Table V-VIII or Fig. 7-9 value unnoticed. Regenerate with
// -update only for an intended change.
func TestPaperResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("suite training is seconds-long")
	}
	const path = "testdata/paper_results.golden"
	results := func(parallel int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallel))
		return paperResults(t, parallel)
	}
	got := results(1)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	for _, parallel := range []int{1, 2, 4} {
		if parallel != 1 {
			got = results(parallel)
		}
		if got != string(want) {
			t.Fatalf("Parallel=%d: paper results drifted from %s:\n%s", parallel, path, lineDiff(string(want), got))
		}
	}
}

// lineDiff reports the first differing line of two renderings.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, h string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			h = gl[i]
		}
		if w != h {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, h)
		}
	}
	return "identical"
}
