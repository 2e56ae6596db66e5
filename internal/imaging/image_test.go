package imaging

import (
	"math/rand"
	"testing"
)

func mustGray(t *testing.T, w, h int) *Gray {
	t.Helper()
	g, err := NewGray(w, h)
	if err != nil {
		t.Fatalf("NewGray: %v", err)
	}
	return g
}

// checkerboard fills the image with a high-frequency pattern.
func checkerboard(g *Gray, period int) {
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if (x/period+y/period)%2 == 0 {
				g.Set(x, y, 255)
			} else {
				g.Set(x, y, 0)
			}
		}
	}
}

func TestNewGrayValidation(t *testing.T) {
	if _, err := NewGray(0, 5); err == nil {
		t.Error("zero width should error")
	}
	if _, err := NewGray(5, -1); err == nil {
		t.Error("negative height should error")
	}
}

func TestAtSetClamping(t *testing.T) {
	g := mustGray(t, 4, 4)
	g.Set(1, 1, 300)
	if got := g.At(1, 1); got != 255 {
		t.Errorf("overflow clamped to %v, want 255", got)
	}
	g.Set(2, 2, -10)
	if got := g.At(2, 2); got != 0 {
		t.Errorf("underflow clamped to %v, want 0", got)
	}
	// Border replication on reads.
	g.Set(0, 0, 42)
	if got := g.At(-3, -3); got != 42 {
		t.Errorf("replicated border = %v, want 42", got)
	}
	if got := g.At(100, 100); got != g.At(3, 3) {
		t.Error("replicated max border wrong")
	}
	// OOB writes ignored.
	g.Set(-1, 0, 99)
	if g.At(0, 0) != 42 {
		t.Error("OOB write leaked")
	}
}

func TestMeanAndFill(t *testing.T) {
	g := mustGray(t, 10, 10)
	g.Fill(100)
	if g.Mean() != 100 {
		t.Errorf("mean = %v", g.Mean())
	}
	g.Fill(999)
	if g.Mean() != 255 {
		t.Error("Fill must clamp")
	}
}

func TestLaplacianVarianceOrdersSharpness(t *testing.T) {
	sharp := mustGray(t, 64, 64)
	checkerboard(sharp, 2)
	slightBlur := sharp.MotionBlur(3)
	heavyBlur := sharp.MotionBlur(9)
	flat := mustGray(t, 64, 64)
	flat.Fill(128)

	vSharp := sharp.LaplacianVariance()
	vSlight := slightBlur.LaplacianVariance()
	vHeavy := heavyBlur.LaplacianVariance()
	vFlat := flat.LaplacianVariance()

	if !(vSharp > vSlight && vSlight > vHeavy && vHeavy > vFlat) {
		t.Errorf("sharpness ordering violated: sharp=%.1f slight=%.1f heavy=%.1f flat=%.1f",
			vSharp, vSlight, vHeavy, vFlat)
	}
	if vFlat != 0 {
		t.Errorf("flat image variance = %v, want 0", vFlat)
	}
}

func TestLaplacianVarianceTinyImage(t *testing.T) {
	g := mustGray(t, 2, 2)
	if g.LaplacianVariance() != 0 {
		t.Error("tiny image should have zero variance")
	}
}

func TestMotionBlurReducesSharpness(t *testing.T) {
	g := mustGray(t, 64, 64)
	checkerboard(g, 2)
	blurred := g.MotionBlur(9)
	if blurred.LaplacianVariance() >= g.LaplacianVariance() {
		t.Error("motion blur did not reduce Laplacian variance")
	}
	// length <= 1 is a no-op copy.
	same := g.MotionBlur(1)
	for i := range same.Pix {
		if same.Pix[i] != g.Pix[i] {
			t.Fatal("MotionBlur(1) should be identity")
		}
	}
	same.Set(0, 0, 7)
	if g.At(0, 0) == 7 {
		t.Error("MotionBlur(1) shares storage")
	}
}

func TestAddNoiseIncreasesVariance(t *testing.T) {
	g := mustGray(t, 32, 32)
	g.Fill(128)
	g.AddNoise(rand.New(rand.NewSource(10)), 20)
	if g.LaplacianVariance() == 0 {
		t.Error("noise should create gradient energy")
	}
	for _, v := range g.Pix {
		if v < 0 || v > 255 {
			t.Fatalf("noise pushed pixel out of range: %v", v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustGray(t, 4, 4)
	g.Fill(50)
	c := g.Clone()
	c.Set(0, 0, 200)
	if g.At(0, 0) != 50 {
		t.Error("clone shares pixels")
	}
}
