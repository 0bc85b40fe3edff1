package emd

import (
	"math"
	"testing"
	"testing/quick"

	"fairrank/internal/rng"
	"fairrank/internal/testkit"
)

func TestExactWpValidation(t *testing.T) {
	if _, err := testkit.ExactWp(nil, []float64{1}, 1); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := testkit.ExactWp([]float64{1}, []float64{1}, 0.5); err == nil {
		t.Error("order < 1 accepted")
	}
	if _, err := testkit.ExactWp([]float64{1}, []float64{1}, math.NaN()); err == nil {
		t.Error("NaN order accepted")
	}
}

func TestExactWpIdentical(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.9}
	for _, p := range []float64{1, 2, 3} {
		d, err := testkit.ExactWp(xs, xs, p)
		if err != nil || d != 0 {
			t.Fatalf("W%v(x,x) = %v, %v", p, d, err)
		}
	}
}

func TestExactWpShift(t *testing.T) {
	// For a pure shift c, W_p = c for every p.
	xs := []float64{0.1, 0.3, 0.5}
	ys := []float64{0.3, 0.5, 0.7}
	for _, p := range []float64{1, 2, 4} {
		d, err := testkit.ExactWp(xs, ys, p)
		if err != nil || math.Abs(d-0.2) > 1e-12 {
			t.Fatalf("W%v shift = %v, %v (want 0.2)", p, d, err)
		}
	}
}

// W1 from the quantile coupling must match the CDF-based Exact1D.
func TestW1MatchesExact1DProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, m := 1+r.Intn(50), 1+r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, m)
		for i := range xs {
			xs[i] = r.Float64()
		}
		for i := range ys {
			ys[i] = r.Float64()
		}
		w1, err := testkit.ExactWp(xs, ys, 1)
		if err != nil {
			return false
		}
		return math.Abs(w1-Exact1D(xs, ys)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: W_p is non-decreasing in p (Jensen / Lyapunov inequality).
func TestWpMonotoneInOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = r.Float64(), r.Float64()
		}
		prev := 0.0
		for _, p := range []float64{1, 1.5, 2, 3} {
			d, err := testkit.ExactWp(xs, ys, p)
			if err != nil || d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestW2EmphasizesOutliers(t *testing.T) {
	// Same W1 mass movement, but concentrated vs spread: W2 must be
	// larger for the concentrated big jump.
	base := []float64{0, 0, 0, 0}
	spread := []float64{0.25, 0.25, 0.25, 0.25} // each moves 0.25
	outlier := []float64{0, 0, 0, 1.0}          // one moves 1.0
	w1s, _ := testkit.ExactWp(base, spread, 1)
	w1o, _ := testkit.ExactWp(base, outlier, 1)
	if math.Abs(w1s-w1o) > 1e-12 {
		t.Fatalf("W1 differs: %v vs %v", w1s, w1o)
	}
	w2s, _ := testkit.ExactWp(base, spread, 2)
	w2o, _ := testkit.ExactWp(base, outlier, 2)
	if !(w2o > w2s) {
		t.Fatalf("W2 outlier %v not above spread %v", w2o, w2s)
	}
}
