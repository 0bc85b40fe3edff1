package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fairrank/internal/rng"
)

// The resampling tests and the descriptive statistics below have no
// production caller; they live beside their tests rather than in the
// package.

// PermutationTest estimates the probability, under the null hypothesis that
// group labels are exchangeable, of observing a statistic at least as large
// as the observed one. statistic receives a labeling (len == len(values))
// assigning each value to a group in [0, groups) and returns the test
// statistic — in fairrank typically the average pairwise EMD between the
// groups' score histograms.
//
// It returns the one-sided p-value with the +1 small-sample correction
// (Phipson & Smyth), so the p-value is never exactly zero.
func PermutationTest(values []float64, labels []int, groups, rounds int, seed uint64,
	statistic func(values []float64, labels []int, groups int) float64) (pValue, observed float64, err error) {
	if len(values) == 0 || len(values) != len(labels) {
		return 0, 0, errors.New("stats: values and labels must have equal non-zero length")
	}
	if groups < 2 {
		return 0, 0, errors.New("stats: need at least two groups")
	}
	if rounds < 1 {
		return 0, 0, errors.New("stats: need at least one permutation round")
	}
	for _, l := range labels {
		if l < 0 || l >= groups {
			return 0, 0, errors.New("stats: label out of range")
		}
	}
	observed = statistic(values, labels, groups)
	r := rng.New(seed)
	perm := make([]int, len(labels))
	copy(perm, labels)
	extreme := 0
	for i := 0; i < rounds; i++ {
		r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if statistic(values, perm, groups) >= observed {
			extreme++
		}
	}
	pValue = (float64(extreme) + 1) / (float64(rounds) + 1)
	return pValue, observed, nil
}

// Bootstrap resamples xs with replacement `rounds` times, applies statistic
// to each resample, and returns the (lo, hi) percentile confidence interval
// of the statistic at the given confidence level (e.g. 0.95).
func Bootstrap(xs []float64, rounds int, confidence float64, seed uint64,
	statistic func([]float64) float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if rounds < 2 {
		return 0, 0, errors.New("stats: need at least two bootstrap rounds")
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, errors.New("stats: confidence must be in (0,1)")
	}
	r := rng.New(seed)
	stats := make([]float64, rounds)
	sample := make([]float64, len(xs))
	for i := 0; i < rounds; i++ {
		for j := range sample {
			sample[j] = xs[r.Intn(len(xs))]
		}
		stats[i] = statistic(sample)
	}
	alpha := (1 - confidence) / 2
	lo, _ = Quantile(stats, alpha)
	hi, _ = Quantile(stats, 1-alpha)
	return lo, hi, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Summary bundles the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q25    float64
	Median float64
	Q75    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	min, max, _ := MinMax(xs)
	q1, _ := Quantile(xs, 0.25)
	med, _ := Median(xs)
	q3, _ := Quantile(xs, 0.75)
	return Summary{
		N: len(xs), Mean: m, StdDev: sd,
		Min: min, Q25: q1, Median: med, Q75: q3, Max: max,
	}, nil
}

// CohensD returns Cohen's d effect size between two samples: the
// difference of means in units of the pooled standard deviation. |d| ≈ 0.2
// is conventionally "small", 0.8 "large". Zero pooled variance yields 0
// for equal means and ±Inf otherwise.
func CohensD(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	ma, _ := Mean(a)
	mb, _ := Mean(b)
	va, _ := Variance(a)
	vb, _ := Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	pooled := (na*va + nb*vb) / (na + nb)
	if pooled == 0 {
		if ma == mb {
			return 0, nil
		}
		return math.Inf(sign(ma - mb)), nil
	}
	return (ma - mb) / math.Sqrt(pooled), nil
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// Correlation returns the Pearson correlation coefficient of paired samples
// xs and ys, which must have equal, non-zero length. A zero-variance input
// yields 0 (no linear relationship detectable).
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, errors.New("stats: correlation needs equal-length non-empty samples")
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

func TestMean(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v", err)
	}
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 2, 2})
	if err != nil || v != 0 {
		t.Errorf("Variance const = %v, %v", v, err)
	}
	v, _ = Variance([]float64{1, 3})
	if v != 1 {
		t.Errorf("Variance{1,3} = %v, want 1", v)
	}
	sd, _ := StdDev([]float64{1, 3})
	if sd != 1 {
		t.Errorf("StdDev{1,3} = %v, want 1", sd)
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Errorf("StdDev(nil) err = %v", err)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v, %v", min, max, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("MinMax(nil) err = %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("q>1 accepted")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("empty sample accepted")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	c, err := Correlation(xs, ys)
	if err != nil || math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect corr = %v, %v", c, err)
	}
	neg := []float64{8, 6, 4, 2}
	c, _ = Correlation(xs, neg)
	if math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect anticorr = %v", c)
	}
	c, _ = Correlation(xs, []float64{5, 5, 5, 5})
	if c != 0 {
		t.Errorf("zero-variance corr = %v", c)
	}
	if _, err := Correlation(xs, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Correlation(nil, nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestGini(t *testing.T) {
	if _, err := Gini(nil); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Gini([]float64{-1, 2}); err == nil {
		t.Error("negative values accepted")
	}
	g, err := Gini([]float64{5, 5, 5, 5})
	if err != nil || math.Abs(g) > 1e-12 {
		t.Errorf("equal Gini = %v, %v", g, err)
	}
	g, _ = Gini([]float64{0, 0, 0, 0})
	if g != 0 {
		t.Errorf("all-zero Gini = %v", g)
	}
	// One holder of everything among n: Gini = (n-1)/n.
	g, _ = Gini([]float64{0, 0, 0, 100})
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("winner-take-all Gini = %v, want 0.75", g)
	}
	// Known worked value: {1,2,3,4} → Gini = 0.25.
	g, _ = Gini([]float64{1, 2, 3, 4})
	if math.Abs(g-0.25) > 1e-12 {
		t.Errorf("Gini{1..4} = %v, want 0.25", g)
	}
	// Order invariance.
	a, _ := Gini([]float64{4, 1, 3, 2})
	if math.Abs(a-0.25) > 1e-12 {
		t.Errorf("shuffled Gini = %v", a)
	}
}

func TestCohensD(t *testing.T) {
	if _, err := CohensD(nil, []float64{1}); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	d, err := CohensD([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || d != 0 {
		t.Errorf("identical d = %v, %v", d, err)
	}
	// Means 0 vs 1, each sample has population SD 1 → d = -1.
	d, _ = CohensD([]float64{-1, 0, 1}, []float64{0, 1, 2})
	if math.Abs(d+1.2247) > 1e-3 { // pooled sd = sqrt(2/3)
		t.Errorf("d = %v", d)
	}
	// Sign follows mean difference.
	dPos, _ := CohensD([]float64{2, 3}, []float64{0, 1})
	if dPos <= 0 {
		t.Errorf("positive-gap d = %v", dPos)
	}
	// Zero variance, different means → ±Inf.
	d, _ = CohensD([]float64{1, 1}, []float64{2, 2})
	if !math.IsInf(d, -1) {
		t.Errorf("degenerate d = %v, want -Inf", d)
	}
	d, _ = CohensD([]float64{1, 1}, []float64{1, 1})
	if d != 0 {
		t.Errorf("degenerate equal d = %v", d)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		min, max, _ := MinMax(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v, err := Quantile(xs, qq)
			if err != nil || v < prev-1e-12 || v < min-1e-12 || v > max+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPermutationTestDetectsSeparation(t *testing.T) {
	// Group 0 values near 0, group 1 values near 1 — the gap statistic
	// should be highly significant.
	values := make([]float64, 40)
	labels := make([]int, 40)
	for i := range values {
		if i < 20 {
			values[i] = 0.1
		} else {
			values[i] = 0.9
			labels[i] = 1
		}
	}
	gap := func(vs []float64, ls []int, groups int) float64 {
		sums := make([]float64, groups)
		counts := make([]float64, groups)
		for i, v := range vs {
			sums[ls[i]] += v
			counts[ls[i]]++
		}
		return math.Abs(sums[0]/counts[0] - sums[1]/counts[1])
	}
	p, obs, err := PermutationTest(values, labels, 2, 500, 7, gap)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obs-0.8) > 1e-12 {
		t.Fatalf("observed = %v, want 0.8", obs)
	}
	if p > 0.01 {
		t.Fatalf("p = %v, want < 0.01", p)
	}
}

func TestPermutationTestNullUniformish(t *testing.T) {
	// Random labels on identical values: p should not be small.
	r := rng.New(3)
	values := make([]float64, 60)
	labels := make([]int, 60)
	for i := range values {
		values[i] = r.Float64()
		labels[i] = r.Intn(2)
	}
	gap := func(vs []float64, ls []int, groups int) float64 {
		sums := make([]float64, groups)
		counts := make([]float64, groups)
		for i, v := range vs {
			sums[ls[i]] += v
			counts[ls[i]]++
		}
		if counts[0] == 0 || counts[1] == 0 {
			return 0
		}
		return math.Abs(sums[0]/counts[0] - sums[1]/counts[1])
	}
	p, _, err := PermutationTest(values, labels, 2, 500, 11, gap)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.02 {
		t.Fatalf("null p = %v, suspiciously small", p)
	}
}

func TestPermutationTestValidation(t *testing.T) {
	stat := func(vs []float64, ls []int, g int) float64 { return 0 }
	if _, _, err := PermutationTest(nil, nil, 2, 10, 1, stat); err == nil {
		t.Error("empty accepted")
	}
	if _, _, err := PermutationTest([]float64{1}, []int{0}, 1, 10, 1, stat); err == nil {
		t.Error("groups<2 accepted")
	}
	if _, _, err := PermutationTest([]float64{1}, []int{0}, 2, 0, 1, stat); err == nil {
		t.Error("rounds<1 accepted")
	}
	if _, _, err := PermutationTest([]float64{1}, []int{5}, 2, 10, 1, stat); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	// Classic worked example: with alpha=0.05 and these p-values, the
	// first three are rejected (p3=0.03 <= 3/5*0.05 = 0.03).
	ps := []float64{0.01, 0.02, 0.03, 0.5, 0.9}
	rej, err := BenjaminiHochberg(ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Fatalf("rejections = %v, want %v", rej, want)
		}
	}
	// Order independence: shuffled input gives the same decisions per
	// hypothesis.
	shuffled := []float64{0.9, 0.03, 0.5, 0.01, 0.02}
	rej2, err := BenjaminiHochberg(shuffled, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want2 := []bool{false, true, false, true, true}
	for i := range want2 {
		if rej2[i] != want2[i] {
			t.Fatalf("shuffled rejections = %v, want %v", rej2, want2)
		}
	}
}

func TestBenjaminiHochbergStepUp(t *testing.T) {
	// The step-up property: a large p-value can be rejected if a later
	// rank satisfies the threshold.
	ps := []float64{0.04, 0.045, 0.049}
	rej, err := BenjaminiHochberg(ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// k=3: 0.049 <= 3/3*0.05, so ALL are rejected despite 0.04 > 1/3*0.05.
	for i, r := range rej {
		if !r {
			t.Fatalf("hypothesis %d not rejected: %v", i, rej)
		}
	}
}

func TestBenjaminiHochbergNoneRejected(t *testing.T) {
	rej, err := BenjaminiHochberg([]float64{0.5, 0.8, 0.9}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rej {
		if r {
			t.Fatalf("rejected under null: %v", rej)
		}
	}
}

func TestBenjaminiHochbergValidation(t *testing.T) {
	if _, err := BenjaminiHochberg(nil, 0.05); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := BenjaminiHochberg([]float64{0.5}, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := BenjaminiHochberg([]float64{0.5}, 1); err == nil {
		t.Error("alpha=1 accepted")
	}
	if _, err := BenjaminiHochberg([]float64{1.5}, 0.05); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := BenjaminiHochberg([]float64{math.NaN()}, 0.05); err == nil {
		t.Error("NaN p accepted")
	}
}

func TestBootstrapCoversTruth(t *testing.T) {
	r := rng.New(5)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64() // true mean 0.5
	}
	mean := func(s []float64) float64 { m, _ := Mean(s); return m }
	lo, hi, err := Bootstrap(xs, 400, 0.95, 13, mean)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0.5 || hi < 0.5 {
		t.Fatalf("95%% CI [%v,%v] misses 0.5", lo, hi)
	}
	if hi-lo > 0.1 {
		t.Fatalf("CI [%v,%v] too wide for n=500", lo, hi)
	}
}

func TestBootstrapValidation(t *testing.T) {
	mean := func(s []float64) float64 { m, _ := Mean(s); return m }
	if _, _, err := Bootstrap(nil, 10, 0.95, 1, mean); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, _, err := Bootstrap([]float64{1}, 1, 0.95, 1, mean); err == nil {
		t.Error("rounds<2 accepted")
	}
	if _, _, err := Bootstrap([]float64{1}, 10, 1.5, 1, mean); err == nil {
		t.Error("confidence>1 accepted")
	}
}
