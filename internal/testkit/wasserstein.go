package testkit

import (
	"errors"
	"math"
	"sort"
)

// ExactWp computes the exact p-Wasserstein distance between the empirical
// distributions of two 1-D samples, using the quantile-coupling identity
// W_p(a,b) = (∫₀¹ |F_a⁻¹(q) - F_b⁻¹(q)|ᵖ dq)^(1/p), evaluated piecewise
// over the merged quantile grid of the two samples. p = 1 coincides with
// emd.Exact1D; p = 2 penalizes large score gaps quadratically, an
// alternative unfairness emphasis the paper's future-work metric search
// contemplates. It is a second, independent sweep beside Oracle.WpFlow's
// mass-pointer coupling: the two are checked against each other.
func ExactWp(xs, ys []float64, p float64) (float64, error) {
	if p < 1 || math.IsNaN(p) || math.IsInf(p, 0) {
		return 0, errors.New("testkit: Wasserstein order must be >= 1")
	}
	if len(xs) == 0 || len(ys) == 0 {
		return 0, errors.New("testkit: empty sample")
	}
	// NaN breaks sort.Float64s ordering and Inf makes the integral diverge;
	// both would silently produce garbage, so reject them up front.
	for _, s := range [2][]float64{xs, ys} {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, errors.New("testkit: non-finite sample value")
			}
		}
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)

	// Sweep quantile levels: the quantile functions are step functions
	// with jumps at i/len(a) and j/len(b).
	var (
		i, j  int
		level float64
		total float64
	)
	for level < 1 {
		nextA := float64(i+1) / float64(len(a))
		nextB := float64(j+1) / float64(len(b))
		next := math.Min(nextA, nextB)
		if next > 1 {
			next = 1
		}
		d := math.Abs(a[i] - b[j])
		total += math.Pow(d, p) * (next - level)
		level = next
		if nextA <= next && i+1 < len(a) {
			i++
		}
		if nextB <= next && j+1 < len(b) {
			j++
		}
		if next == 1 {
			break
		}
	}
	return math.Pow(total, 1/p), nil
}
