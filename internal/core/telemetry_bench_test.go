package core

import (
	"bytes"
	"io"
	"log/slog"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/telemetry"
)

// BenchmarkIngestInstrumented measures the telemetry overhead on the ingest
// hot path: the same per-batch workload as BenchmarkIngest, with the full
// observability bundle (registry + tracer + discarded slog) attached versus
// no telemetry at all. The instrumented path should stay within ~2% of the
// bare one — spans are two time.Now calls and one atomic histogram
// observation per stage.
func BenchmarkIngestInstrumented(b *testing.B) {
	for _, mode := range []struct {
		name string
		tel  *telemetry.Telemetry
	}{
		{"off", nil},
		{"on", telemetry.New(slog.New(slog.NewTextHandler(io.Discard, nil)), 64)},
	} {
		b.Run("telemetry="+mode.name, func(b *testing.B) {
			snap := ingestBase(b, 500, 4)
			sys, err := LoadSystem(bytes.NewReader(snap), ingestEnv.v, ingestEnv.w)
			if err != nil {
				b.Fatal(err)
			}
			if mode.tel != nil {
				sys.SetTelemetry(mode.tel)
			}
			rng := rand.New(rand.NewSource(77))
			var batches [][]camera.Photo
			for i := 0; i < 4; i++ {
				pos := ingestEnv.sweepPos[(i*7)%len(ingestEnv.sweepPos)].Add(geom.V2(0.31, 0.17))
				photos, err := ingestEnv.w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
				if err != nil {
					b.Fatal(err)
				}
				batches = append(batches, photos)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pos := ingestEnv.sweepPos[(i*7)%len(ingestEnv.sweepPos)]
				if _, err := sys.ProcessPhotoBatch(pos, pos, batches[i%len(batches)], rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
