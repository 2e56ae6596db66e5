package metrics

import (
	"math"
	"strings"
	"testing"

	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/venue"
)

func newMap(t *testing.T, w, h int) *grid.Map {
	t.Helper()
	m, err := grid.New(geom.V2(0, 0), 0.15, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCoveragePercent(t *testing.T) {
	truth := newMap(t, 10, 10)
	gen := newMap(t, 10, 10)
	// Truth covers 50 cells; generated covers 30 of them plus 10 outside.
	n := 0
	truth.Each(func(c grid.Cell, _ int) {
		if n < 50 {
			truth.Set(c, 1)
			if n < 30 {
				gen.Set(c, 1)
			}
			n++
		}
	})
	// Extra generated cells outside truth must not count.
	gen.Set(grid.Cell{I: 9, J: 9}, 1)
	got, err := CoveragePercent(gen, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-60) > 1e-9 {
		t.Errorf("coverage = %v, want 60", got)
	}
}

func TestCoveragePercentErrors(t *testing.T) {
	m := newMap(t, 5, 5)
	if _, err := CoveragePercent(nil, m); err == nil {
		t.Error("nil generated should error")
	}
	other, _ := grid.New(geom.V2(0, 0), 0.15, 4, 4)
	if _, err := CoveragePercent(m, other); err == nil {
		t.Error("layout mismatch should error")
	}
	empty := newMap(t, 5, 5)
	if _, err := CoveragePercent(m, empty); err == nil {
		t.Error("empty truth should error")
	}
}

func TestOuterBoundsPercent(t *testing.T) {
	m := newMap(t, 100, 100) // 15x15 m
	// Outer wall along y=1 from x=1 to x=11 (10 m).
	wall := venue.Surface{
		ID: 1, Seg: geom.Seg(geom.V2(1, 1), geom.V2(11, 1)), Top: 3,
		Material: venue.Brick, Outer: true,
	}
	// Reconstruct only the first half in the obstacle map.
	for x := 1.0; x <= 6.0; x += 0.05 {
		m.Set(m.CellOf(geom.V2(x, 1)), 5)
	}
	got, err := OuterBoundsPercent(m, []venue.Surface{wall}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if got < 40 || got > 60 {
		t.Errorf("bounds = %v%%, want ~50", got)
	}
	// Full reconstruction.
	for x := 1.0; x <= 11.0; x += 0.05 {
		m.Set(m.CellOf(geom.V2(x, 1)), 5)
	}
	got, err = OuterBoundsPercent(m, []venue.Surface{wall}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if got < 95 {
		t.Errorf("full wall bounds = %v%%, want ~100", got)
	}
	// Empty map → 0%.
	empty := newMap(t, 100, 100)
	got, err = OuterBoundsPercent(empty, []venue.Surface{wall}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty map bounds = %v%%", got)
	}
}

func TestOuterBoundsPercentErrors(t *testing.T) {
	if _, err := OuterBoundsPercent(nil, nil, 0.15); err == nil {
		t.Error("nil map should error")
	}
	m := newMap(t, 5, 5)
	if _, err := OuterBoundsPercent(m, nil, 0.15); err == nil {
		t.Error("no surfaces should error")
	}
}

func TestMergeIntervals(t *testing.T) {
	tests := []struct {
		name string
		in   []Interval
		want []Interval
	}{
		{"empty", nil, nil},
		{"single", []Interval{{1, 2}}, []Interval{{1, 2}}},
		{"overlap", []Interval{{1, 3}, {2, 5}}, []Interval{{1, 5}}},
		{"touch", []Interval{{1, 2}, {2, 3}}, []Interval{{1, 3}}},
		{"disjoint", []Interval{{4, 5}, {1, 2}}, []Interval{{1, 2}, {4, 5}}},
		{"contained", []Interval{{1, 10}, {3, 4}}, []Interval{{1, 10}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := MergeIntervals(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestFeaturelessPRFPerfect(t *testing.T) {
	truth := venue.Surface{
		Seg: geom.Seg(geom.V2(0, 5), geom.V2(10, 5)), Top: 3, Material: venue.Glass,
	}
	spans := []geom.Segment{geom.Seg(geom.V2(2, 5), geom.V2(8, 5))}
	visible := []Interval{{2, 8}}
	prf := FeaturelessPRF(spans, truth, visible, 0.25)
	if prf.Precision < 0.99 || prf.Recall < 0.99 || prf.F < 0.99 {
		t.Errorf("perfect reconstruction scored %+v", prf)
	}
}

func TestFeaturelessPRFPartialRecall(t *testing.T) {
	truth := venue.Surface{
		Seg: geom.Seg(geom.V2(0, 5), geom.V2(10, 5)), Top: 3, Material: venue.Glass,
	}
	// Visible stretch 0..8 but only 0..4 reconstructed.
	spans := []geom.Segment{geom.Seg(geom.V2(0, 5), geom.V2(4, 5))}
	visible := []Interval{{0, 8}}
	prf := FeaturelessPRF(spans, truth, visible, 0.25)
	if prf.Precision < 0.99 {
		t.Errorf("on-surface span precision = %v", prf.Precision)
	}
	if prf.Recall < 0.45 || prf.Recall > 0.55 {
		t.Errorf("recall = %v, want ~0.5", prf.Recall)
	}
	if prf.F <= 0 || prf.F >= 1 {
		t.Errorf("F = %v", prf.F)
	}
}

func TestFeaturelessPRFOffSurface(t *testing.T) {
	truth := venue.Surface{
		Seg: geom.Seg(geom.V2(0, 5), geom.V2(10, 5)), Top: 3, Material: venue.Glass,
	}
	// Span floating 2 m off the wall: zero precision and recall.
	spans := []geom.Segment{geom.Seg(geom.V2(0, 7), geom.V2(4, 7))}
	prf := FeaturelessPRF(spans, truth, []Interval{{0, 10}}, 0.25)
	if prf.Precision != 0 || prf.Recall != 0 || prf.F != 0 {
		t.Errorf("off-surface span scored %+v", prf)
	}
}

func TestFeaturelessPRFEmpty(t *testing.T) {
	truth := venue.Surface{Seg: geom.Seg(geom.V2(0, 5), geom.V2(10, 5)), Top: 3}
	prf := FeaturelessPRF(nil, truth, nil, 0.25)
	if prf.Precision != 0 || prf.Recall != 0 || prf.F != 0 {
		t.Errorf("empty input scored %+v", prf)
	}
}

func TestRenderASCII(t *testing.T) {
	ob := newMap(t, 4, 3)
	vis := newMap(t, 4, 3)
	truth := newMap(t, 4, 3)
	truth.Fill(1)
	ob.Set(grid.Cell{I: 0, J: 0}, 1)
	vis.Set(grid.Cell{I: 1, J: 0}, 2)
	s, err := RenderASCII(ob, vis, truth)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d", len(lines))
	}
	// North-up: row 0 of output is J=2.
	bottom := lines[2]
	if bottom[0] != '#' || bottom[1] != '.' || bottom[2] != '_' {
		t.Errorf("bottom row = %q", bottom)
	}
	// Outside truth → blank.
	truth.Set(grid.Cell{I: 3, J: 0}, 0)
	s, _ = RenderASCII(ob, vis, truth)
	lines = strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[2][3] != ' ' {
		t.Errorf("outside-truth cell = %q", lines[2][3])
	}
	if _, err := RenderASCII(nil, vis, nil); err == nil {
		t.Error("nil map should error")
	}
}

func TestWritePGM(t *testing.T) {
	ob := newMap(t, 4, 3)
	vis := newMap(t, 4, 3)
	truth := newMap(t, 4, 3)
	truth.Fill(1)
	ob.Set(grid.Cell{I: 0, J: 0}, 1)
	vis.Set(grid.Cell{I: 1, J: 0}, 2)
	out, err := WritePGM(ob, vis, truth)
	if err != nil {
		t.Fatal(err)
	}
	want := "P5\n4 3\n255\n"
	if string(out[:len(want)]) != want {
		t.Fatalf("header = %q", out[:len(want)])
	}
	pix := out[len(want):]
	if len(pix) != 12 {
		t.Fatalf("pixel count = %d", len(pix))
	}
	// North-up: the bottom map row (J=0) is the last pixel row.
	bottom := pix[8:]
	if bottom[0] != 0 {
		t.Errorf("obstacle pixel = %d, want 0", bottom[0])
	}
	if bottom[1] != 180 {
		t.Errorf("visible pixel = %d, want 180", bottom[1])
	}
	if bottom[2] != 255 {
		t.Errorf("unknown pixel = %d, want 255", bottom[2])
	}
	// Outside the truth area renders faintly.
	truth.Set(grid.Cell{I: 3, J: 0}, 0)
	out, _ = WritePGM(ob, vis, truth)
	pix = out[len(want):]
	if pix[11] != 230 {
		t.Errorf("outside pixel = %d, want 230", pix[11])
	}
	// nil truth allowed.
	if _, err := WritePGM(ob, vis, nil); err != nil {
		t.Errorf("nil truth rejected: %v", err)
	}
	if _, err := WritePGM(nil, vis, nil); err == nil {
		t.Error("nil obstacles accepted")
	}
	mismatch, _ := grid.New(geom.V2(0, 0), 0.15, 5, 5)
	if _, err := WritePGM(ob, mismatch, nil); err == nil {
		t.Error("layout mismatch accepted")
	}
}
