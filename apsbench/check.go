package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/trace"
)

// knownFailures lists checked items that fail at the parent commit for
// a known, recorded defect. They still count in report.failed; they do
// not make the run incorrect. Key: "<workload>/<item>".
var knownFailures = map[string]string{
	// Every per-session MLMonitor wraps the suite's one *ml.MLP, whose
	// inference scratch two fleet shards write at once (the shared-MLP
	// data race in ROADMAP.md). The Table VII MLP row is the only output
	// that runs those monitors on several shards, so at Parallel > 1 it
	// depends on the goroutine schedule and differs from Parallel 1.
	"paper/table7.MLP": "shared-MLP inference race across fleet shards, see ROADMAP.md",
}

//go:embed refs/*.json
var storedRefs embed.FS

// storedReference returns the checked-in reference for a workload at a
// seed, if one was recorded (the default seed and one held-out seed).
func storedReference(workload string, toy bool, seed int64) (map[string]string, bool) {
	if toy {
		return nil, false
	}
	data, err := storedRefs.ReadFile(fmt.Sprintf("refs/%s-seed%d.json", workload, seed))
	if err != nil {
		return nil, false
	}
	var ref map[string]string
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, false
	}
	return ref, true
}

// checker counts checked items: each comparison is one attempted
// operation and each mismatch one failed operation.
type checker struct {
	workload   string
	attempted  int
	failed     int
	unexpected int
	failures   map[string]int // item -> mismatches
}

func newChecker(workload string) *checker {
	return &checker{workload: workload, failures: make(map[string]int)}
}

// expect records one checked item.
func (c *checker) expect(item string, ok bool) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	c.failures[item]++
	if _, known := knownFailures[c.workload+"/"+item]; !known {
		c.unexpected++
	}
}

// compare checks every item of got against the reference; an item
// missing on either side is a mismatch.
func (c *checker) compare(got, ref map[string]string) {
	for _, k := range unionKeys(got, ref) {
		g, gok := got[k]
		r, rok := ref[k]
		c.expect(k, gok && rok && g == r)
	}
}

func unionKeys(a, b map[string]string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	for _, m := range []map[string]string{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// digest renders a value exactly: %v prints floats in their shortest
// round-tripping form and maps in key order, so equal digests mean
// bit-equal values.
func digest(v any) string { return fmt.Sprintf("%+v", v) }

// traceDigest hashes the JSON encoding of a trace set: it covers every
// exported field, and Go encodes each float64 in a form that parses
// back to the same bits.
func traceDigest(traces []*trace.Trace) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(traces); err != nil {
		return fmt.Sprintf("%d traces, not encodable: %v", len(traces), err)
	}
	return fmt.Sprintf("%d traces %s", len(traces), hex.EncodeToString(h.Sum(nil)))
}
