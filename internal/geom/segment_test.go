package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(V2(0, 0), V2(3, 4))
	if !almostEq(s.Len(), 5) {
		t.Errorf("Len = %v, want 5", s.Len())
	}
	if !s.Mid().ApproxEq(V2(1.5, 2)) {
		t.Errorf("Mid = %v", s.Mid())
	}
	if !s.Dir().ApproxEq(V2(0.6, 0.8)) {
		t.Errorf("Dir = %v", s.Dir())
	}
	if !s.At(0).ApproxEq(s.A) || !s.At(1).ApproxEq(s.B) {
		t.Error("At endpoints mismatch")
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(V2(0, 0), V2(10, 0))
	tests := []struct {
		p     Vec2
		want  Vec2
		wantT float64
	}{
		{V2(5, 3), V2(5, 0), 0.5},
		{V2(-2, 1), V2(0, 0), 0},
		{V2(12, -1), V2(10, 0), 1},
		{V2(0, 0), V2(0, 0), 0},
	}
	for _, tt := range tests {
		got, gotT := s.ClosestPoint(tt.p)
		if !got.ApproxEq(tt.want) || !almostEq(gotT, tt.wantT) {
			t.Errorf("ClosestPoint(%v) = %v,%v want %v,%v", tt.p, got, gotT, tt.want, tt.wantT)
		}
	}
	// Degenerate segment.
	d := Seg(V2(1, 1), V2(1, 1))
	got, _ := d.ClosestPoint(V2(5, 5))
	if !got.ApproxEq(V2(1, 1)) {
		t.Errorf("degenerate ClosestPoint = %v", got)
	}
}

// TestSegmentIntersect checks segment-segment intersection as the capture
// occlusion test computes it: a ray from s.A towards s.B that hits o no
// farther than s is long.
func TestSegmentIntersect(t *testing.T) {
	tests := []struct {
		name   string
		s, o   Segment
		want   Vec2
		wantOK bool
	}{
		{"cross", Seg(V2(0, 0), V2(2, 2)), Seg(V2(0, 2), V2(2, 0)), V2(1, 1), true},
		{"miss", Seg(V2(0, 0), V2(1, 0)), Seg(V2(0, 1), V2(1, 1)), Vec2{}, false},
		{"touch-endpoint", Seg(V2(0, 0), V2(1, 0)), Seg(V2(1, 0), V2(1, 1)), V2(1, 0), true},
		{"parallel", Seg(V2(0, 0), V2(1, 0)), Seg(V2(0, 0.5), V2(1, 0.5)), Vec2{}, false},
		{"collinear-overlap", Seg(V2(0, 0), V2(2, 0)), Seg(V2(1, 0), V2(3, 0)), V2(1, 0), true},
		{"collinear-disjoint", Seg(V2(0, 0), V2(1, 0)), Seg(V2(2, 0), V2(3, 0)), Vec2{}, false},
		{"t-junction", Seg(V2(0, 0), V2(2, 0)), Seg(V2(1, -1), V2(1, 1)), V2(1, 0), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewRay(tt.s.A, tt.s.B.Sub(tt.s.A))
			d, ok := r.IntersectSegment(tt.o)
			ok = ok && d <= tt.s.Len()+Eps
			got := r.At(d)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && !got.ApproxEq(tt.want) {
				t.Errorf("point = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRayIntersectSegment(t *testing.T) {
	tests := []struct {
		name   string
		r      Ray
		s      Segment
		wantT  float64
		wantOK bool
	}{
		{"head-on", NewRay(V2(0, 0), V2(1, 0)), Seg(V2(5, -1), V2(5, 1)), 5, true},
		{"behind", NewRay(V2(0, 0), V2(-1, 0)), Seg(V2(5, -1), V2(5, 1)), 0, false},
		{"parallel-miss", NewRay(V2(0, 0), V2(1, 0)), Seg(V2(0, 1), V2(5, 1)), 0, false},
		{"collinear-ahead", NewRay(V2(0, 0), V2(1, 0)), Seg(V2(3, 0), V2(6, 0)), 3, true},
		{"collinear-through-origin", NewRay(V2(0, 0), V2(1, 0)), Seg(V2(-1, 0), V2(2, 0)), 0, true},
		{"oblique", NewRay(V2(0, 0), V2(1, 1)), Seg(V2(0, 2), V2(2, 0)), math.Sqrt2, true},
		{"past-end", NewRay(V2(0, 0), V2(1, 0)), Seg(V2(5, 1), V2(5, 3)), 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gotT, ok := tt.r.IntersectSegment(tt.s)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && math.Abs(gotT-tt.wantT) > 1e-9 {
				t.Errorf("t = %v, want %v", gotT, tt.wantT)
			}
		})
	}
}

func TestAABB(t *testing.T) {
	b := NewAABB(V2(3, 1), V2(0, 4))
	if !b.Min.ApproxEq(V2(0, 1)) || !b.Max.ApproxEq(V2(3, 4)) {
		t.Fatalf("NewAABB normalisation failed: %+v", b)
	}
	if !almostEq(b.Width(), 3) || !almostEq(b.Height(), 3) || !almostEq(b.Area(), 9) {
		t.Error("dimensions wrong")
	}
	if !b.Contains(V2(1, 2)) || b.Contains(V2(5, 5)) {
		t.Error("Contains wrong")
	}
	if !b.Contains(b.Min) || !b.Contains(b.Max) {
		t.Error("boundary should be contained")
	}
	e := EmptyAABB()
	if !e.Empty() || e.Area() != 0 {
		t.Error("EmptyAABB not empty")
	}
	u := e.Union(b)
	if u != b {
		t.Error("union with empty should be identity")
	}
	if got := b.AddPoint(V2(10, 10)); !got.Max.ApproxEq(V2(10, 10)) {
		t.Error("AddPoint failed")
	}
	if !b.Intersects(NewAABB(V2(2, 2), V2(9, 9))) {
		t.Error("should intersect")
	}
	if b.Intersects(NewAABB(V2(4, 5), V2(9, 9))) {
		t.Error("should not intersect")
	}
	if got := b.Expand(1); !got.Min.ApproxEq(V2(-1, 0)) || !got.Max.ApproxEq(V2(4, 5)) {
		t.Error("Expand failed")
	}
}

// Property: a point on the segment (by construction) intersects a ray shot
// at it from anywhere.
func TestRayHitsPointOnSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		a := V2(rng.Float64()*20-10, rng.Float64()*20-10)
		b := V2(rng.Float64()*20-10, rng.Float64()*20-10)
		if a.Dist(b) < 0.01 {
			return true
		}
		s := Seg(a, b)
		target := s.At(rng.Float64())
		origin := V2(rng.Float64()*20-10, rng.Float64()*20-10)
		if origin.Dist(target) < 0.01 {
			return true
		}
		r := NewRay(origin, target.Sub(origin))
		tHit, ok := r.IntersectSegment(s)
		if !ok {
			return false
		}
		// The hit must be no farther than the target itself.
		return tHit <= origin.Dist(target)+1e-6
	}
	for i := 0; i < 300; i++ {
		if !f() {
			t.Fatalf("ray failed to hit constructed point (iter %d)", i)
		}
	}
}

// Property: ClosestPoint really is the minimum over samples.
func TestClosestPointIsMinimal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	f := func(ax, ay, bx, by, px, py float64) bool {
		if anyBad(ax, ay, bx, by, px, py) {
			return true
		}
		mod := func(x float64) float64 { return math.Mod(x, 100) }
		s := Seg(V2(mod(ax), mod(ay)), V2(mod(bx), mod(by)))
		p := V2(mod(px), mod(py))
		dBest := s.DistToPoint(p)
		for i := 0; i <= 20; i++ {
			if d := p.Dist(s.At(float64(i) / 20)); d < dBest-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
