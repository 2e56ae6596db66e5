// Glasswall: the featureless-surface annotation pipeline in isolation.
//
// A glass wall defeats SfM — no features, no 3D points, no obstacle cells.
// This example walks through the paper's remedy step by step: photograph
// the wall (T=4 photos), let 15 simulated online workers mark its corners,
// clean the noisy marks with DBSCAN + k-means (Algorithm 5), triangulate
// the corners, imprint a distinctive texture and re-run SfM (Algorithm 6),
// then score the reconstruction against ground truth.
//
// Run with:
//
//	go run ./examples/glasswall
package main

import (
	"fmt"
	"log"
	"math/rand"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/imaging"
	"snaptask/internal/metrics"
	"snaptask/internal/sfm"
	"snaptask/internal/venue"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 12×10 room whose east wall is glass.
	b := venue.NewBuilder("glass-demo", geom.Rect(geom.V2(0, 0), geom.V2(12, 10)), 3.0)
	b.WallMaterial(1, venue.Glass)
	b.Entrance(0, 0.1, 0.2)
	b.Obstacle("shelf-a", geom.Rect(geom.V2(8, 1), geom.V2(11, 1.6)), 2.0, venue.Wood, 10)
	b.Obstacle("shelf-b", geom.Rect(geom.V2(8, 8.4), geom.V2(11, 9)), 2.0, venue.Wood, 10)
	v, err := b.Build()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	world := camera.NewWorld(v, v.GenerateFeatures(rng))

	// Seed a model with two sweeps so annotation photos have context to
	// register against.
	model := sfm.NewModel(sfm.Config{}, world.FeaturesView())
	for _, pos := range []geom.Vec2{{X: 9.5, Y: 5}, {X: 7, Y: 5}} {
		photos, err := world.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			return err
		}
		if _, err := model.RegisterBatch(photos, rng); err != nil {
			return err
		}
	}
	artBefore := model.Cloud().CountArtificial()
	fmt.Printf("seed model: %d views, %d points, %d artificial\n",
		model.NumViews(), model.NumPoints(), artBefore)

	// Step 1: the on-site photos.
	task, err := annotation.CollectPhotos(world, v, geom.V2(10.5, 5), camera.DefaultIntrinsics(), rng)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d photos of surface %d\n", len(task.Photos), task.TruthSurfaceID)

	// Step 2: 15 online workers mark the corners.
	anns, err := annotation.SimulateWorkers(task, v, annotation.WorkerOptions{Workers: 15}, rng)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d worker annotations\n", len(anns))

	// Step 3: Algorithm 5 — distinct objects and cleaned corner quads.
	bounds, err := annotation.MarkedObstacleBounds(anns, len(task.Photos), annotation.BoundsConfig{}, rng)
	if err != nil {
		return err
	}
	for _, ob := range bounds {
		fmt.Printf("object %d: cleaned quads on %d photos, %d supporting workers\n",
			ob.Object, len(ob.QuadByPhoto), ob.Workers)
	}

	// Step 4: Algorithm 6 — texture imprint and SfM re-run.
	nextID := annotation.ArtificialIDBase
	recon, err := annotation.Reconstruct(model, world, task, bounds,
		imaging.TextureDB{}, annotation.ReconConfig{}, &nextID, rng)
	if err != nil {
		return err
	}
	fmt.Printf("identified %d surfaces, reconstructed %d\n", recon.Identified, recon.Reconstructed)
	fmt.Printf("model now has %d artificial points\n", model.Cloud().CountArtificial())

	// Step 5: score against ground truth.
	var truth venue.Surface
	for _, s := range v.Surfaces() {
		if s.ID == task.TruthSurfaceID {
			truth = s
		}
	}
	// Recall denominator: the stretch visible across the whole photo set
	// (workers mark the same corners in every photo).
	common := metrics.Interval{Lo: 0, Hi: truth.Seg.Len()}
	for _, p := range task.Photos {
		if lo, hi, ok := annotation.VisibleRange(p, truth); ok {
			if lo > common.Lo {
				common.Lo = lo
			}
			if hi < common.Hi {
				common.Hi = hi
			}
		}
	}
	visible := []metrics.Interval{common}
	var spans []geom.Segment
	for _, sr := range recon.Surfaces {
		spans = append(spans, sr.Span())
		fmt.Printf("reconstructed span on the wall: %v (%.2f m)\n", sr.Span(), sr.Span().Len())
	}
	prf := metrics.FeaturelessPRF(spans, truth, visible, 0.25)
	fmt.Printf("precision %.2f, recall %.2f, F-score %.2f (paper averages: 0.98 / - / 0.90)\n",
		prf.Precision, prf.Recall, prf.F)
	return nil
}
