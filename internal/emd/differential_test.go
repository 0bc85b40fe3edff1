package emd

import (
	"math"
	"testing"

	"fairrank/internal/testkit"
)

// Differential tests: every EMD entry point in this package against the
// testkit oracles. These complement the fixed-fixture tests in emd_test.go
// with generated inputs and the shared metamorphic suite.

func TestPMFDistanceMetamorphic(t *testing.T) {
	testkit.CheckEMDProperties(t, "PMFDistance", PMFDistance, 300)
}

// Transport under the linear ground cost must reproduce the closed form.
// Tolerance is loose (1e-6) because Transport quantizes mass to 1e-9 units.
func TestTransportMatchesClosedForm(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		g := testkit.NewGen(seed)
		bins := g.R.IntRange(1, 25)
		p, q := g.PMF(bins), g.PMF(bins)
		unit := g.R.FloatRange(0.05, 2)
		got, err := Transport(p, q, LinearCost(bins, bins, unit))
		if err != nil {
			t.Fatalf("seed %d: Transport: %v", seed, err)
		}
		want := PMFDistance(p, q, unit)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("seed %d: Transport = %v, closed form = %v (bins=%d)", seed, got, want, bins)
		}
	}
}

// Exact1D (CDF sweep) against the oracle's explicit monotone coupling.
func TestExact1DMatchesWpFlow(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 300; seed++ {
		g := testkit.NewGen(seed)
		xs := g.Scores(g.R.IntRange(1, 40))
		ys := g.Scores(g.R.IntRange(1, 40))
		got := Exact1D(xs, ys)
		want := o.WpFlow(xs, ys, 1)
		if math.Abs(got-want) > testkit.Tol {
			t.Fatalf("seed %d: Exact1D = %v, flow oracle = %v (|xs|=%d |ys|=%d)",
				seed, got, want, len(xs), len(ys))
		}
	}
}

// ExactWp's quantile-grid sweep against the oracle's mass-pointer flow, for
// p = 1 (where it must also equal Exact1D) and p = 2.
func TestExactWpMatchesWpFlow(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 300; seed++ {
		g := testkit.NewGen(seed)
		xs := g.Scores(g.R.IntRange(1, 30))
		ys := g.Scores(g.R.IntRange(1, 30))
		for _, p := range []float64{1, 2} {
			got, err := testkit.ExactWp(xs, ys, p)
			if err != nil {
				t.Fatalf("seed %d: testkit.ExactWp(p=%v): %v", seed, p, err)
			}
			want := o.WpFlow(xs, ys, p)
			if math.Abs(got-want) > testkit.Tol {
				t.Fatalf("seed %d: testkit.ExactWp(p=%v) = %v, flow oracle = %v", seed, p, got, want)
			}
		}
		w1, _ := testkit.ExactWp(xs, ys, 1)
		if ex := Exact1D(xs, ys); math.Abs(w1-ex) > testkit.Tol {
			t.Fatalf("seed %d: testkit.ExactWp(p=1) = %v, Exact1D = %v", seed, w1, ex)
		}
	}
}

// Edge cases surfaced by the bugfix sweep, pinned so they stay fixed.

func TestExactWpRejectsNonFinite(t *testing.T) {
	bad := [][2][]float64{
		{{math.NaN()}, {0.5}},
		{{0.5}, {math.NaN(), 0.2}},
		{{math.Inf(1)}, {0.5}},
		{{0.1, math.Inf(-1)}, {0.5}},
	}
	for i, pair := range bad {
		if _, err := testkit.ExactWp(pair[0], pair[1], 1); err == nil {
			t.Errorf("case %d: ExactWp accepted non-finite sample %v vs %v", i, pair[0], pair[1])
		}
	}
	// Finite inputs must still pass.
	if _, err := testkit.ExactWp([]float64{0.1, 0.9}, []float64{0.5}, 2); err != nil {
		t.Fatalf("finite samples rejected: %v", err)
	}
}

func TestPMFDistanceSingleBin(t *testing.T) {
	// One bin: no ground distance to cover, so any two PMFs are at 0.
	if d := PMFDistance([]float64{1}, []float64{1}, 0.5); d != 0 {
		t.Fatalf("single-bin distance = %v, want 0", d)
	}
}

func TestPMFDistanceEmpty(t *testing.T) {
	// Zero-length PMFs truncate to an empty sum.
	if d := PMFDistance(nil, nil, 1); d != 0 {
		t.Fatalf("empty distance = %v, want 0", d)
	}
	if d := PMFDistance([]float64{1}, nil, 1); d != 0 {
		t.Fatalf("mismatched empty distance = %v, want 0", d)
	}
}
