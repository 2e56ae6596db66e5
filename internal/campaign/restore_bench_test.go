package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/geom"
)

// BenchmarkManagerRestore measures a manager restart over a journal root
// holding three checkpointed library campaigns (~600 registered views
// each): NewManager, which restores every campaign's model (decode,
// adopted SOR distances and visibility counts, no view cast), then the
// shutdown Checkpoint, which writes every campaign's snapshot. Run it at
// -cpu 1,2 to see the campaigns restore and checkpoint side by side.
func BenchmarkManagerRestore(b *testing.B) {
	const views = 600
	spec := Spec{Venue: "library", Seed: 21}
	v, w := campaignWorld(b, spec)
	sys, err := core.NewSystem(v, w, core.Config{Margin: 12})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	boot, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		b.Fatal(err)
	}
	var free []geom.Vec2
	bounds := v.Bounds()
	for y := bounds.Min.Y + 0.7; y < bounds.Max.Y; y += 1.1 {
		for x := bounds.Min.X + 0.7; x < bounds.Max.X; x += 1.1 {
			if p := geom.V2(x, y); !v.Blocked(p) {
				free = append(free, p)
			}
		}
	}
	for i := 0; sys.Model().NumViews() < views; i++ {
		pos := free[i%len(free)]
		photos, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ProcessPhotoBatch(pos, pos, photos, rng); err != nil {
			b.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := sys.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}

	root := b.TempDir()
	m, err := NewManager(ManagerConfig{JournalRoot: root})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cs, err := core.LoadSystem(bytes.NewReader(snap.Bytes()), v, w)
		if err != nil {
			b.Fatal(err)
		}
		sp := spec
		sp.ID = fmt.Sprintf("c%d", i)
		if _, err := m.CreateWith(sp, cs); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewManager(ManagerConfig{JournalRoot: root})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagerCreate measures the cold start of a new campaign:
// Manager.Create of a library campaign on a journal root, which builds the
// venue, its features and their world index, a fresh system (layout grids
// and feature oracle), the campaign's journal and server, and publishes
// the first snapshot. Each iteration creates into a fresh manager and
// root; setting those up and closing them is not timed.
func BenchmarkManagerCreate(b *testing.B) {
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := NewManager(ManagerConfig{JournalRoot: filepath.Join(root, strconv.Itoa(i))})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Create(Spec{ID: "lib", Venue: "library", Seed: 21}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
