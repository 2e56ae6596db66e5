// Package imaging provides the small image-processing substrate SnapTask
// needs: grayscale raster images, blur synthesis (box and motion blur),
// sharpness estimation via the variance of the Laplacian (Pech-Pacheco et
// al. [20], the measure the paper uses to reject blurry crowdsourced
// photos), and the projection of artificial distinctive textures into an
// annotated image region (the imagemagick step of Algorithm 6).
package imaging

import (
	"fmt"
	"math"
	"math/rand"
)

// Gray is a grayscale image with float64 pixels in [0, 255]. Pixels are
// stored row-major. The zero value is unusable; construct with NewGray.
type Gray struct {
	W, H int
	Pix  []float64
}

// NewGray returns a w×h image initialised to black. It returns an error
// for non-positive dimensions.
func NewGray(w, h int) (*Gray, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imaging: dimensions %dx%d must be positive", w, h)
	}
	return &Gray{W: w, H: h, Pix: make([]float64, w*h)}, nil
}

// At returns the pixel at (x, y), clamping coordinates to the image border
// (replicate padding), which keeps convolutions simple and artefact-free.
func (g *Gray) At(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y), clamping the value to [0, 255] and
// ignoring out-of-bounds writes.
func (g *Gray) Set(x, y int, v float64) {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = math.Max(0, math.Min(255, v))
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := &Gray{W: g.W, H: g.H, Pix: make([]float64, len(g.Pix))}
	copy(out.Pix, g.Pix)
	return out
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v float64) {
	v = math.Max(0, math.Min(255, v))
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Mean returns the average pixel intensity.
func (g *Gray) Mean() float64 {
	var sum float64
	for _, v := range g.Pix {
		sum += v
	}
	return sum / float64(len(g.Pix))
}

// LaplacianVariance returns the variance of the 4-neighbour Laplacian over
// the image — the paper's blurriness measure. Sharp, textured images score
// high; blurred or featureless images score near zero.
func (g *Gray) LaplacianVariance() float64 {
	if g.W < 3 || g.H < 3 {
		return 0
	}
	n := 0
	var sum, sumSq float64
	for y := 1; y < g.H-1; y++ {
		for x := 1; x < g.W-1; x++ {
			lap := g.At(x-1, y) + g.At(x+1, y) + g.At(x, y-1) + g.At(x, y+1) - 4*g.At(x, y)
			sum += lap
			sumSq += lap * lap
			n++
		}
	}
	mean := sum / float64(n)
	return sumSq/float64(n) - mean*mean
}

// MotionBlur returns a copy blurred along the x axis over `length` pixels,
// simulating camera movement during exposure — the failure mode of workers
// who move too fast while capturing.
func (g *Gray) MotionBlur(length int) *Gray {
	if length <= 1 {
		return g.Clone()
	}
	out, _ := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float64
			for k := 0; k < length; k++ {
				s += g.At(x+k-length/2, y)
			}
			out.Pix[y*g.W+x] = s / float64(length)
		}
	}
	return out
}

// AddNoise adds zero-mean Gaussian noise with the given sigma to every
// pixel, in place.
func (g *Gray) AddNoise(rng *rand.Rand, sigma float64) {
	for i, v := range g.Pix {
		g.Pix[i] = math.Max(0, math.Min(255, v+rng.NormFloat64()*sigma))
	}
}
