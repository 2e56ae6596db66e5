package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/crowd"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/nav"
	"snaptask/internal/server"
	"snaptask/internal/venue"
)

// venueName is the venue every workload maps: the paper's library.
const venueName = "library"

// worldSeed fixes the simulated library (its feature layout) and the
// guided loop that prepares served models, so every run measures the same
// venue and model; --seed varies the request streams, the query photos
// and the sweeps.
const worldSeed = 42

// mapMargin is the server's default -margin, so an in-process model has
// the same map geometry as one the server builds.
const mapMargin = 12

// venueWorld is the simulated world of one campaign, derived from its
// world seed exactly as the server derives it.
type venueWorld struct {
	seed  int64
	v     *venue.Venue
	world *camera.World
	walk  *grid.Map
}

func newVenueWorld(seed int64) (*venueWorld, error) {
	v, err := venue.ByName(venueName, seed)
	if err != nil {
		return nil, err
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(seed))))
	gt, err := v.GroundTruth(0.15)
	if err != nil {
		return nil, err
	}
	return &venueWorld{seed: seed, v: v, world: world, walk: v.WalkMap(gt)}, nil
}

func (vw *venueWorld) worker() *crowd.GuidedWorker {
	return &crowd.GuidedWorker{
		World: vw.world, Venue: vw.v,
		Intrinsics: camera.DefaultIntrinsics(), Pos: vw.v.Entrance(),
	}
}

// preparedModel is a library model built in-process by the guided loop
// and written as a snapshot for the server's -load.
type preparedModel struct {
	vw       *venueWorld
	snapPath string
	taskLocs []geom.Vec2
	// expect is what the server must serve for this model before any
	// mutation: the published read snapshot of an in-process server.
	expect *server.ReadSnapshot
}

// prepareModel runs the guided task loop for tasks tasks on a fresh
// system and writes the model snapshot to snapPath.
func prepareModel(vw *venueWorld, tasks int, seed int64, snapPath string) (*preparedModel, error) {
	sys, err := core.NewSystem(vw.v, vw.world, core.Config{Margin: mapMargin})
	if err != nil {
		return nil, err
	}
	pm := &preparedModel{vw: vw, snapPath: snapPath}
	_, err = core.RunGuidedLoop(sys, vw.worker(), vw.walk, core.LoopOptions{
		MaxTasks:    tasks,
		OnIteration: func(it core.Iteration) { pm.taskLocs = append(pm.taskLocs, it.Task.Location) },
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("prepare model: %w", err)
	}
	f, err := os.Create(snapPath)
	if err != nil {
		return nil, err
	}
	if err := sys.WriteSnapshot(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	srv, err := server.New(sys, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	pm.expect = srv.Snapshot()
	return pm, nil
}

// nearMapped returns a free position within radius of a mapped task
// location (or anywhere free in the venue with probability far).
func (pm *preparedModel) nearMapped(rng *rand.Rand, radius, far float64) (geom.Vec2, error) {
	v := pm.vw.v
	if len(pm.taskLocs) == 0 || rng.Float64() < far {
		return v.RandomFreePoint(rng)
	}
	for try := 0; try < 100; try++ {
		c := pm.taskLocs[rng.Intn(len(pm.taskLocs))]
		p := c.Add(geom.UnitFromAngle(rng.Float64() * 2 * math.Pi).Scale(rng.Float64() * radius))
		if v.Inside(p) && !v.Blocked(p) {
			return p, nil
		}
	}
	return v.RandomFreePoint(rng)
}

// locateQuery is one pre-encoded locate request and its expected answer.
type locateQuery struct {
	photo    camera.Photo
	body     []byte
	truth    geom.Vec2
	features int // query features present in the model it was built against
	// localizable: nav.Localize succeeds against that model; robust: it
	// still succeeds with only half of the matched features, so outlier
	// removal in a growing model cannot plausibly take it below the bar.
	localizable, robust bool
}

// locateQueries captures n single photos around the mapped area and
// classifies each against the model's feature index.
func locateQueries(pm *preparedModel, n int, rng *rand.Rand, rec *genStats) ([]locateQuery, error) {
	in := camera.DefaultIntrinsics()
	out := make([]locateQuery, 0, n)
	for len(out) < n {
		pos, err := pm.nearMapped(rng, 2.5, 0.1)
		if err != nil {
			return nil, err
		}
		photo, err := pm.vw.world.Capture(camera.Pose{Pos: pos, Yaw: rng.Float64() * 2 * math.Pi}, in, camera.CaptureOptions{}, rng)
		if err != nil {
			return nil, err
		}
		q, err := newLocateQuery(photo, pm.expect.Features, rng, rec)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// newLocateQuery encodes photo as a locate request and classifies it
// against a model's feature index.
func newLocateQuery(photo camera.Photo, features map[uint64]bool, rng *rand.Rand, rec *genStats) (locateQuery, error) {
	shared := 0
	for _, o := range photo.Obs {
		if features[o.FeatureID] {
			shared++
		}
	}
	_, locErr := nav.Localize(photo, features, photo.Pose.Pos, rng)
	half := photo
	half.Obs = nil
	kept := 0
	for _, o := range photo.Obs {
		if features[o.FeatureID] {
			kept++
			if kept%2 == 0 {
				continue
			}
		}
		half.Obs = append(half.Obs, o)
	}
	_, halfErr := nav.Localize(half, features, photo.Pose.Pos, rng)
	body, err := rec.encodeLocate(photo)
	if err != nil {
		return locateQuery{}, err
	}
	return locateQuery{photo: photo, body: body, truth: photo.Pose.Pos, features: shared,
		localizable: locErr == nil, robust: halfErr == nil}, nil
}

// sweepUpload is one pre-encoded unleased full-sweep upload.
type sweepUpload struct {
	body   []byte
	photos int
}

// sweepUploads captures n full sweeps near the model's task locations,
// visited in order so that every run spreads its uploads alike over the
// mapped area, and encodes them as unleased uploads.
func sweepUploads(pm *preparedModel, n int, rng *rand.Rand, rec *genStats) ([]sweepUpload, error) {
	in := camera.DefaultIntrinsics()
	out := make([]sweepUpload, 0, n)
	for len(out) < n {
		pos := pm.taskLocs[len(out)%len(pm.taskLocs)]
		if p := pos.Add(geom.UnitFromAngle(rng.Float64() * 2 * math.Pi).Scale(0.5 * rng.Float64())); pm.vw.v.Inside(p) && !pm.vw.v.Blocked(p) {
			pos = p
		}
		start := time.Now()
		photos, err := pm.vw.world.Sweep(pos, in, camera.CaptureOptions{}, rng)
		rec.addSweep(time.Since(start))
		if err != nil {
			return nil, err
		}
		body, err := rec.encodeUpload(server.UploadRequest{LocX: pos.X, LocY: pos.Y}, photos)
		if err != nil {
			return nil, err
		}
		out = append(out, sweepUpload{body: body, photos: len(photos)})
	}
	return out, nil
}

// genStats records the generator's own costs: client-side wire encode and
// sweep synthesis (layer "client" and the generator validity checks).
// Closed-loop workers record into it concurrently.
type genStats struct {
	mu           sync.Mutex
	uploadEncode []time.Duration
	uploadBytes  []int
	locateBytes  []int
	sweep        []time.Duration
	sample       [][]byte // the first task-upload bodies, for in-process decode timing
}

// sampleUploads is how many upload bodies genStats keeps.
const sampleUploads = 8

// encodeUpload builds the upload DTO from photos and encodes it exactly as
// the client package does, timing the encode.
func (g *genStats) encodeUpload(req server.UploadRequest, photos []camera.Photo) ([]byte, error) {
	start := time.Now()
	req.Photos = make([]server.PhotoDTO, 0, len(photos))
	for _, p := range photos {
		req.Photos = append(req.Photos, server.PhotoToDTO(p))
	}
	body, err := json.Marshal(req)
	took := time.Since(start)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.uploadEncode = append(g.uploadEncode, took)
	g.uploadBytes = append(g.uploadBytes, len(body))
	if len(g.sample) < sampleUploads && !req.Bootstrap {
		g.sample = append(g.sample, body)
	}
	return body, err
}

// encodeLocate encodes a locate request as the client package does.
func (g *genStats) encodeLocate(photo camera.Photo) ([]byte, error) {
	body, err := json.Marshal(server.LocateRequest{Photo: server.PhotoToDTO(photo)})
	g.mu.Lock()
	defer g.mu.Unlock()
	g.locateBytes = append(g.locateBytes, len(body))
	return body, err
}

func (g *genStats) addSweep(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sweep = append(g.sweep, d)
}
