package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVec2Arithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Vec2
		want Vec2
	}{
		{"add", V2(1, 2).Add(V2(3, -1)), V2(4, 1)},
		{"sub", V2(1, 2).Sub(V2(3, -1)), V2(-2, 3)},
		{"scale", V2(1, 2).Scale(2.5), V2(2.5, 5)},
		{"perp", V2(1, 0).Perp(), V2(0, 1)},
		{"lerp-mid", V2(0, 0).Lerp(V2(2, 4), 0.5), V2(1, 2)},
		{"lerp-ends", V2(5, 5).Lerp(V2(9, 9), 0), V2(5, 5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.ApproxEq(tt.want) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVec2DotCross(t *testing.T) {
	if got := V2(1, 2).Dot(V2(3, 4)); !almostEq(got, 11) {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := V2(1, 0).Cross(V2(0, 1)); !almostEq(got, 1) {
		t.Errorf("Cross = %v, want 1", got)
	}
	if got := V2(0, 1).Cross(V2(1, 0)); !almostEq(got, -1) {
		t.Errorf("Cross = %v, want -1", got)
	}
}

func TestVec2Norm(t *testing.T) {
	n := V2(3, 4).Norm()
	if !almostEq(n.Len(), 1) {
		t.Errorf("normalised length = %v, want 1", n.Len())
	}
	if !V2(0, 0).Norm().ApproxEq(V2(0, 0)) {
		t.Error("zero vector should normalise to zero")
	}
}

func TestVec2AngleRoundTrip(t *testing.T) {
	for _, theta := range []float64{0, 0.5, math.Pi / 2, -1.2, 3.0, -math.Pi + 0.001} {
		u := UnitFromAngle(theta)
		if got := u.Angle(); math.Abs(NormalizeAngle(got-theta)) > 1e-9 {
			t.Errorf("angle round trip: theta=%v got=%v", theta, got)
		}
	}
}

func TestVec3Basics(t *testing.T) {
	a, b := V3(1, 2, 3), V3(4, 5, 6)
	if !almostEq(a.Dot(b), 32) {
		t.Errorf("Dot = %v, want 32", a.Dot(b))
	}
	c := a.Cross(b)
	if !almostEq(c.Dot(a), 0) || !almostEq(c.Dot(b), 0) {
		t.Error("cross product not orthogonal to operands")
	}
	if got := V3(3, 4, 0).Len(); !almostEq(got, 5) {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := a.XY(); !got.ApproxEq(V2(1, 2)) {
		t.Errorf("XY = %v, want (1,2)", got)
	}
	if got := V2(1, 2).Lift(7); got != V3(1, 2, 7) {
		t.Errorf("Lift = %v", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestNormalizeAngle(t *testing.T) {
	for _, theta := range []float64{0, 1, -1, 7, -7, 4 * math.Pi, -4 * math.Pi} {
		n := NormalizeAngle(theta)
		if n <= -math.Pi || n > math.Pi {
			t.Errorf("NormalizeAngle(%v) = %v outside (-pi, pi]", theta, n)
		}
		if d := math.Mod(math.Abs(n-theta), 2*math.Pi); d > 1e-9 && math.Abs(d-2*math.Pi) > 1e-9 {
			t.Errorf("NormalizeAngle(%v) = %v differs by non-multiple of 2pi", theta, n)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, -0.1); !almostEq(got, -0.2) {
		t.Errorf("AngleDiff = %v, want -0.2", got)
	}
	// Wrap-around: from +3 to -3 radians the short way is +0.28...
	got := AngleDiff(3, -3)
	if got < 0 || got > 0.3 {
		t.Errorf("AngleDiff(3,-3) = %v, want small positive", got)
	}
}

// Property: dot product is symmetric and cross anti-symmetric.
func TestDotCrossSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a, b := V2(math.Mod(ax, 1e6), math.Mod(ay, 1e6)), V2(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		return almostRel(a.Dot(b), b.Dot(a)) && almostRel(a.Cross(b), -b.Cross(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func almostRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
