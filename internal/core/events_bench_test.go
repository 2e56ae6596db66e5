package core

import (
	"bytes"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/events"
	"snaptask/internal/geom"
)

// BenchmarkIngestJournaled measures the event-journal overhead on the
// ingest hot path: the same per-batch workload as
// BenchmarkIngestInstrumented, with the full event pipeline attached
// (journal append, one fsync per processed batch, bus publish, campaign
// fold) versus no events at all. The journaled path should stay within ~2%
// of the bare one — per batch it is a handful of small JSON marshals into a
// buffered writer plus a single fsync.
func BenchmarkIngestJournaled(b *testing.B) {
	for _, mode := range []string{"off", "dir"} {
		b.Run("journal="+mode, func(b *testing.B) {
			snap := ingestBase(b, 500, 4)
			sys, err := LoadSystem(bytes.NewReader(snap), ingestEnv.v, ingestEnv.w)
			if err != nil {
				b.Fatal(err)
			}
			var evlog *events.Log
			if mode == "dir" {
				// The checkpointing store with rotation in play: segment
				// rollover must not cost the hot path anything measurable.
				evlog, err = events.OpenDir(b.TempDir(), nil,
					events.DirStoreOptions{SegmentMaxBytes: 1 << 20}, events.CheckpointPolicy{})
				if err != nil {
					b.Fatal(err)
				}
			}
			if evlog != nil {
				defer func() {
					if err := evlog.Close(); err != nil {
						b.Fatal(err)
					}
				}()
				sys.SetEvents(evlog)
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
