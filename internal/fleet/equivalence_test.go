package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fault"
	"repro/internal/sensor"
)

// Digests of the original single-fault enum injector path's output for
// the configuration below — the serialized traces and the epoch-merged
// LogSink stream — recorded (identical at Parallel 1, 2 and 3) before
// that path was removed from the engine. They stand in for the enum
// oracle the compiled program path used to be compared against live.
const (
	enumGoldenTracesSHA256 = "9ebe4d67094b214d00f1fede8c9f9f7cb8cceff260505923b0329f9a557054ac"
	enumGoldenEventsSHA256 = "1c89be5d59e67ed403b3e99a9777b3cf9af2d050683a5dc2d4fd4aad73f74074"
)

// TestFleetLegacyMatrixGoldenDifferential is the scenario-IR golden
// differential: driving legacy 882-matrix entries through the compiled
// program path (fault.Programs → Plan) must reproduce the enum
// injector path byte for byte — serialized traces AND the epoch-merged
// telemetry stream — at every parallelism level. Sensor noise is on,
// so the comparison covers the per-session RNG threading too.
func TestFleetLegacyMatrixGoldenDifferential(t *testing.T) {
	full := fault.Campaign(nil)
	var legacy []fault.Scenario
	for _, i := range []int{0, 97, 250, 555, 881} {
		legacy = append(legacy, full[i])
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for parallel := 1; parallel <= 3; parallel++ {
		var buf bytes.Buffer
		res, err := Run(context.Background(), Config{
			Platform:     glucosymPlatform(),
			Patients:     []int{0, 3},
			Scenarios:    fault.Programs(legacy),
			Steps:        40,
			Seed:         42,
			Parallel:     parallel,
			Sensor:       &sensor.Config{NoiseSD: 3},
			Telemetry:    &TelemetryConfig{},
			Sinks:        []Sink{NewLogSink(&buf)},
			ShardedSinks: true,
			SinkEpoch:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(tracesCSV(t, res.Traces)); got != enumGoldenTracesSHA256 {
			t.Fatalf("Parallel=%d: traces sha256 %s, want enum golden %s", parallel, got, enumGoldenTracesSHA256)
		}
		if got := digest(buf.Bytes()); got != enumGoldenEventsSHA256 {
			t.Fatalf("Parallel=%d: telemetry stream sha256 %s, want enum golden %s", parallel, got, enumGoldenEventsSHA256)
		}
	}
}
