package emd

import (
	"errors"
	"math"
	"testing"

	"fairrank/internal/testkit"
)

// A float bound tier on the closed-form 1-D EMD (PMFDistance), with its
// containment tests. It has no production caller — the engine's pruning
// cascade brackets averages with the fixed-point kernels of fixed.go — so
// it lives beside its tests rather than in the package. The tiers, ordered
// by cost:
//
//	mean  ≤  KS  ≤  thresholded-flow  ≤  exact EMD  ≤  L1-derived cap
//
// Writing C_i = Σ_{j≤i}(p_j − q_j) for the cumulative PMF gap and n for
// the compared bin count, the exact EMD is unit·Σ_i|C_i| and the bounds
// follow from elementary inequalities on that sum:
//
//   - mean (centroid) lower bound: |Σ_i C_i| ≤ Σ_i |C_i|. The left side is
//     the absolute difference of the distributions' means measured in bin
//     units — computable in O(1) per pair from per-histogram moments.
//   - Kolmogorov–Smirnov lower bound: max_i |C_i| ≤ Σ_i |C_i|.
//   - L1 upper bound: for PMFs of equal total mass, every prefix gap
//     satisfies |C_i| = |Σ_{j≤i}(p_j−q_j)| = |Σ_{j>i}(p_j−q_j)| ≤ L1(p,q)/2,
//     and C_{n−1} = 0, so Σ_i |C_i| ≤ (n−1)·L1(p,q)/2. The cap is tight:
//     two point masses at opposite ends have L1 = 2 and EMD = unit·(n−1).
//   - thresholded flow (Pele–Werman): the thresholded ground distance
//     min(|i−j|·unit, t) never exceeds the linear one, so the optimal
//     thresholded transport cost T_t is a lower bound; conversely any unit
//     of mass whose thresholded cost was clamped at t moves at linear cost
//     at most (n−1)·unit, and the total mass moved is at most TV(p,q), so
//     EMD ≤ T_t + ((n−1)·unit − t)·TV(p,q).
//
// All inequalities above are exact in real arithmetic. Computed in floats
// they can be violated by rounding on the order of a few ULPs, so every
// bound is padded by boundSlack — a guard that is provably larger than the
// accumulated rounding error yet orders of magnitude below any distance
// the engine discriminates on. The property tests below assert
// containment with NO tolerance: the slack is part of the contract.

// ErrNonFinite is returned by the bound functions when an input PMF
// contains NaN or ±Inf. Bounds on garbage would silently mis-prune, so
// non-finite inputs are rejected up front.
var ErrNonFinite = errors.New("emd: non-finite PMF value")

// boundSlack returns the float-rounding guard folded into every bound for
// n compared bins. Each C_i is a sum of ≤ 2n terms bounded by 1, so its
// rounding error is ≤ 2n·ε with ε = 2⁻⁵²; summing n of them and scaling
// by unit keeps the total error below unit·2n²·ε ≈ unit·n²·4.5e-16. The
// guard uses 1e-12·n·unit — over three orders of magnitude of headroom
// for any bin count the engine uses, and still ~9 orders of magnitude
// below a typical Table 2 pair distance.
func boundSlack(n int, unit float64) float64 {
	return 1e-12 * float64(n) * math.Abs(unit)
}

// checkFinitePMFs validates both inputs, returning the compared length
// (PMFDistance's min-length convention).
func checkFinitePMFs(p, q []float64) (int, error) {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(p[i]) || math.IsInf(p[i], 0) || math.IsNaN(q[i]) || math.IsInf(q[i], 0) {
			return 0, ErrNonFinite
		}
	}
	return n, nil
}

// KSLowerBound returns a guaranteed lower bound on PMFDistance(p, q, unit):
// the Kolmogorov–Smirnov statistic (max cumulative gap) scaled by unit,
// deflated by the rounding guard and clamped at 0.
func KSLowerBound(p, q []float64, unit float64) (float64, error) {
	n, err := checkFinitePMFs(p, q)
	if err != nil {
		return 0, err
	}
	lo := KolmogorovSmirnov(p[:n], q[:n])*unit - boundSlack(n, unit)
	if lo < 0 {
		lo = 0
	}
	return lo, nil
}

// MeanLowerBound returns a guaranteed lower bound on PMFDistance: the
// absolute mean difference |Σ_i C_i|·unit (the cheapest tier — one
// subtraction per pair once per-histogram first moments are cached),
// deflated by the rounding guard and clamped at 0.
func MeanLowerBound(p, q []float64, unit float64) (float64, error) {
	n, err := checkFinitePMFs(p, q)
	if err != nil {
		return 0, err
	}
	cum, sum := 0.0, 0.0
	for i := 0; i < n; i++ {
		cum += p[i] - q[i]
		sum += cum
	}
	lo := math.Abs(sum)*unit - boundSlack(n, unit)
	if lo < 0 {
		lo = 0
	}
	return lo, nil
}

// L1UpperBound returns a guaranteed upper bound on PMFDistance:
// unit·(n−1)·L1(p,q)/2, inflated by the rounding guard. The (n−1) factor
// requires equal total mass (see the derivation above); inputs whose
// totals differ by more than 1e-9 are rejected rather than silently
// under-bounded.
func L1UpperBound(p, q []float64, unit float64) (float64, error) {
	n, err := checkFinitePMFs(p, q)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	sp, sq := 0.0, 0.0
	for i := 0; i < n; i++ {
		sp += p[i]
		sq += q[i]
	}
	if math.Abs(sp-sq) > 1e-9 {
		return 0, errors.New("emd: L1 upper bound requires equal total mass")
	}
	// The mass-difference tolerance admits |C_{n-1}| ≤ 1e-9, which the
	// n−1 factor does not cover; fold it into the guard.
	return L1(p[:n], q[:n])/2*float64(n-1)*unit + 1e-9*math.Abs(unit) + boundSlack(n, unit), nil
}

// PivotBounds converts two distances to a shared pivot histogram into an
// interval for the pair's own distance via the metric triangle inequality:
// |rp − rq| ≤ d(p,q) ≤ rp + rq. slack pads both ends against the rounding
// already accumulated in rp and rq (pass boundSlack-scale values; the
// engine derives it from the bin count of the reps being compared). The
// 1-D EMD is a true metric on PMFs, so the inequality is exact in real
// arithmetic.
func PivotBounds(rp, rq, slack float64) (lo, hi float64) {
	lo = math.Abs(rp-rq) - slack
	if lo < 0 {
		lo = 0
	}
	return lo, rp + rq + slack
}

// ThresholdedBounds brackets PMFDistance(p, q, unit) using the
// Pele–Werman thresholded transport: the optimal cost T_t under ground
// distance min(|i−j|·unit, t) satisfies
//
//	T_t ≤ EMD ≤ T_t + ((n−1)·unit − t)·TV(p, q)
//
// (clamped mass moves at linear cost at most (n−1)·unit instead of t, and
// total transported mass is at most the total-variation distance). The
// solver quantizes mass to 1e-9 of the total, so its result carries a
// relative error up to ~2e-9 of the maximum ground cost; the guard here is
// scaled accordingly and is therefore much wider than boundSlack.
// Threshold t must be positive; t ≥ (n−1)·unit degenerates to [EMD, EMD].
func ThresholdedBounds(p, q []float64, unit, t float64) (lo, hi float64, err error) {
	n, err := checkFinitePMFs(p, q)
	if err != nil {
		return 0, 0, err
	}
	if n == 0 {
		return 0, 0, nil
	}
	if t <= 0 || math.IsNaN(t) {
		return 0, 0, errors.New("emd: threshold must be positive")
	}
	maxCost := float64(n-1) * unit
	tt, err := Transport(p[:n], q[:n], ThresholdedCost(n, n, unit, t))
	if err != nil {
		return 0, 0, err
	}
	guard := 1e-8*(maxCost+math.Abs(t)) + boundSlack(n, unit)
	lo = tt - guard
	if lo < 0 {
		lo = 0
	}
	hi = tt + guard
	if t < maxCost {
		hi += (maxCost - t) * (L1(p[:n], q[:n]) / 2)
	}
	return lo, hi, nil
}

// Bounds returns the tightest cheap interval the cascade offers without
// solving a flow: lower = max(mean, KS) tier, upper = L1 cap. The exact
// PMFDistance always lies within [lo, hi].
func Bounds(p, q []float64, unit float64) (lo, hi float64, err error) {
	ks, err := KSLowerBound(p, q, unit)
	if err != nil {
		return 0, 0, err
	}
	mean, err := MeanLowerBound(p, q, unit)
	if err != nil {
		return 0, 0, err
	}
	if mean > ks {
		ks = mean
	}
	hi, err = L1UpperBound(p, q, unit)
	if err != nil {
		return 0, 0, err
	}
	return ks, hi, nil
}

// The bound contract is containment with NO tolerance: the guard slack is
// baked into each bound, so lo ≤ exact ≤ hi must hold as plain float
// comparisons. Every property test here asserts exactly that, against both
// the closed form and the independent flow oracle.

func TestBoundsContainExactProperty(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(0); seed < 300; seed++ {
		g := testkit.NewGen(seed)
		bins := g.R.IntRange(1, 40)
		unit := g.R.Float64() + 0.01
		p, q := g.PMF(bins), g.PMF(bins)
		exact := PMFDistance(p, q, unit)
		flow := o.EMDFlow(p, q, unit)

		lo, hi, err := Bounds(p, q, unit)
		if err != nil {
			t.Fatalf("seed %d: Bounds: %v", seed, err)
		}
		if lo > exact || exact > hi {
			t.Fatalf("seed %d: exact %v outside [%v, %v] (bins=%d unit=%v)", seed, exact, lo, hi, bins, unit)
		}
		if lo > flow || flow > hi {
			t.Fatalf("seed %d: flow oracle %v outside [%v, %v]", seed, flow, lo, hi)
		}

		ks, err := KSLowerBound(p, q, unit)
		if err != nil {
			t.Fatalf("seed %d: KSLowerBound: %v", seed, err)
		}
		if ks > exact {
			t.Fatalf("seed %d: KS lower bound %v exceeds exact %v", seed, ks, exact)
		}
		mean, err := MeanLowerBound(p, q, unit)
		if err != nil {
			t.Fatalf("seed %d: MeanLowerBound: %v", seed, err)
		}
		if mean > exact {
			t.Fatalf("seed %d: mean lower bound %v exceeds exact %v", seed, mean, exact)
		}
		up, err := L1UpperBound(p, q, unit)
		if err != nil {
			t.Fatalf("seed %d: L1UpperBound: %v", seed, err)
		}
		if up < exact {
			t.Fatalf("seed %d: L1 upper bound %v below exact %v", seed, up, exact)
		}
	}
}

func TestBoundsIdenticalPMFs(t *testing.T) {
	g := testkit.NewGen(7)
	p := g.PMF(16)
	lo, hi, err := Bounds(p, p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 {
		t.Fatalf("identical PMFs: lower bound %v, want 0", lo)
	}
	if hi < 0 {
		t.Fatalf("identical PMFs: negative upper bound %v", hi)
	}
}

func TestThresholdedBoundsContainExact(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		g := testkit.NewGen(seed)
		bins := g.R.IntRange(2, 16)
		unit := g.R.Float64() + 0.01
		p, q := g.PMF(bins), g.PMF(bins)
		exact := PMFDistance(p, q, unit)
		for _, t0 := range []float64{unit / 2, unit, 2 * unit, float64(bins-1) * unit} {
			lo, hi, err := ThresholdedBounds(p, q, unit, t0)
			if err != nil {
				t.Fatalf("seed %d t=%v: %v", seed, t0, err)
			}
			if lo > exact || exact > hi {
				t.Fatalf("seed %d t=%v: exact %v outside [%v, %v]", seed, t0, exact, lo, hi)
			}
		}
	}
}

func TestThresholdedBoundsTightenWithThreshold(t *testing.T) {
	// At t ≥ (n−1)·unit the thresholded cost degenerates to the exact EMD,
	// so the interval collapses to the solver's quantization guard.
	g := testkit.NewGen(11)
	bins, unit := 12, 0.25
	p, q := g.PMF(bins), g.PMF(bins)
	exact := PMFDistance(p, q, unit)
	lo, hi, err := ThresholdedBounds(p, q, unit, float64(bins)*unit)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo > 1e-6 {
		t.Fatalf("degenerate threshold interval [%v, %v] too wide", lo, hi)
	}
	if lo > exact || exact > hi {
		t.Fatalf("exact %v outside [%v, %v]", exact, lo, hi)
	}
}

func TestPivotBoundsContainExact(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		g := testkit.NewGen(1000 + seed)
		bins := g.R.IntRange(1, 24)
		unit := g.R.Float64() + 0.01
		p, q, pivot := g.PMF(bins), g.PMF(bins), g.PMF(bins)
		rp := PMFDistance(p, pivot, unit)
		rq := PMFDistance(q, pivot, unit)
		exact := PMFDistance(p, q, unit)
		lo, hi := PivotBounds(rp, rq, boundSlack(bins, unit))
		if lo > exact || exact > hi {
			t.Fatalf("seed %d: exact %v outside pivot interval [%v, %v]", seed, exact, lo, hi)
		}
	}
}

// Irregular-length PMFs follow PMFDistance's min-length convention: the
// lower bounds compare the common prefix, so containment must still hold;
// the L1 cap additionally requires equal mass over that prefix.
func TestBoundsIrregularLengths(t *testing.T) {
	g := testkit.NewGen(23)
	p := g.PMF(5)
	q := make([]float64, 9) // mass confined to the compared prefix
	copy(q, g.PMF(5))
	exact := PMFDistance(p, q, 0.2)
	lo, hi, err := Bounds(p, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if lo > exact || exact > hi {
		t.Fatalf("irregular lengths: exact %v outside [%v, %v]", exact, lo, hi)
	}

	// Mass beyond the compared prefix is invisible to the min-length
	// convention, so the cap still holds.
	q[8] = 0.5
	if up, err := L1UpperBound(p, q, 0.2); err != nil || up < exact {
		t.Fatalf("trailing mass: up=%v err=%v, want ≥ %v", up, err, exact)
	}

	// Unequal mass *within* the compared prefix breaks the (n−1)/2 factor:
	// the cap must refuse rather than under-bound.
	for i := range p {
		q[i] /= 2
	}
	if _, err := L1UpperBound(p, q, 0.2); err == nil {
		t.Fatal("L1UpperBound accepted unequal prefix mass")
	}
}

func TestBoundsRejectNonFinite(t *testing.T) {
	good := []float64{0.5, 0.5}
	for _, bad := range [][]float64{
		{math.NaN(), 0.5},
		{math.Inf(1), 0},
		{0.5, math.Inf(-1)},
	} {
		for name, err := range map[string]error{
			"KSLowerBound":   func() error { _, e := KSLowerBound(bad, good, 1); return e }(),
			"MeanLowerBound": func() error { _, e := MeanLowerBound(good, bad, 1); return e }(),
			"L1UpperBound":   func() error { _, e := L1UpperBound(bad, good, 1); return e }(),
			"Bounds":         func() error { _, _, e := Bounds(good, bad, 1); return e }(),
			"Thresholded":    func() error { _, _, e := ThresholdedBounds(bad, good, 1, 0.5); return e }(),
		} {
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s(%v): err = %v, want ErrNonFinite", name, bad, err)
			}
		}
	}
}

func TestThresholdedBoundsRejectsBadThreshold(t *testing.T) {
	p := []float64{0.5, 0.5}
	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, _, err := ThresholdedBounds(p, p, 1, bad); err == nil {
			t.Fatalf("threshold %v accepted", bad)
		}
	}
}

func TestL1UpperBoundMassMismatch(t *testing.T) {
	if _, err := L1UpperBound([]float64{1, 0}, []float64{0.25, 0.25}, 1); err == nil {
		t.Fatal("unequal total mass accepted")
	}
}

func TestBoundsEmpty(t *testing.T) {
	lo, hi, err := Bounds(nil, nil, 1)
	if err != nil || lo != 0 || hi != 0 {
		t.Fatalf("empty PMFs: lo=%v hi=%v err=%v, want 0 0 nil", lo, hi, err)
	}
	if lo, hi, err := ThresholdedBounds(nil, nil, 1, 0.5); err != nil || lo != 0 || hi != 0 {
		t.Fatalf("empty thresholded: lo=%v hi=%v err=%v", lo, hi, err)
	}
}
