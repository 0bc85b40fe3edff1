package emd

import (
	"math"
	"testing"

	"fairrank/internal/testkit"
)

// Fuzz targets differential-test the EMD fast paths against the testkit
// oracles on fuzzer-shaped inputs. Seed corpora live under
// testdata/fuzz/<target>/ and are replayed by plain `go test` as well.

// normalizePMF turns raw non-negative floats into a PMF, or nil when the
// row carries no mass.
func normalizePMF(vals []float64) []float64 {
	total := 0.0
	for _, v := range vals {
		total += v
	}
	if total <= 0 {
		return nil
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / total
	}
	return out
}

// FuzzPMFDistance checks the closed-form EMD against the explicit-flow
// oracle and the min-cost-flow Transport solver. Layout: data[0] selects the
// bin count, data[1] the ground unit, the rest supplies two PMFs. The
// committed sparse-supply-vs-dense-demand seeds reproduce the cost-epsilon
// cycling that used to hang Transport's SPFA search.
func FuzzPMFDistance(f *testing.F) {
	f.Add([]byte{10, 50, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{4, 100, 200, 0, 0, 0, 0, 0, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		bins := int(data[0])%24 + 1
		unit := float64(data[1])/100 + 0.01
		vals := testkit.FiniteFloats(data[2:])
		if len(vals) < 2*bins {
			return
		}
		p := normalizePMF(vals[:bins])
		q := normalizePMF(vals[bins : 2*bins])
		if p == nil || q == nil {
			return
		}
		var o testkit.Oracle
		d := PMFDistance(p, q, unit)
		if want := o.EMDFlow(p, q, unit); math.Abs(d-want) > testkit.Tol {
			t.Fatalf("PMFDistance = %v, flow oracle = %v (p=%v q=%v unit=%v)", d, want, p, q, unit)
		}
		if back := PMFDistance(q, p, unit); math.Abs(back-d) > testkit.Tol {
			t.Fatalf("asymmetric: %v vs %v", d, back)
		}
		if d < 0 {
			t.Fatalf("negative distance %v", d)
		}
		tr, err := Transport(p, q, LinearCost(bins, bins, unit))
		if err != nil {
			t.Fatalf("Transport: %v (p=%v q=%v)", err, p, q)
		}
		if math.Abs(tr-d) > 1e-6 {
			t.Fatalf("Transport = %v, closed form = %v (p=%v q=%v unit=%v)", tr, d, p, q, unit)
		}
	})
}

// FuzzExactEMD checks the sample-space path: Exact1D against the oracle's
// monotone-coupling flow. Layout: data[0] splits the remaining bytes into
// the two samples; values decode through SpecialFloats, and inputs with
// NaN or ±Inf are skipped (Exact1D's contract covers finite samples).
func FuzzExactEMD(f *testing.F) {
	f.Add([]byte{3, 10, 20, 30, 100, 150, 200})
	f.Add([]byte{1, 255, 100}) // NaN in the first sample
	f.Add([]byte{2, 254, 253, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cut := int(data[0])%(len(data)-1) + 1
		vals := testkit.SpecialFloats(data[1:])
		xs, ys := vals[:cut], vals[cut:]
		if len(xs) == 0 || len(ys) == 0 {
			return
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		var o testkit.Oracle
		ex := Exact1D(xs, ys)
		if want := o.WpFlow(xs, ys, 1); math.Abs(ex-want) > testkit.Tol {
			t.Fatalf("Exact1D = %v, flow oracle = %v (xs=%v ys=%v)", ex, want, xs, ys)
		}
	})
}

// FuzzFixedQuant checks the fixed-point quantized kernel's contract on
// fuzzer-shaped inputs: FixedCDF never panics and rejects non-finite
// values; quantize→dequantize round-trips within the documented epsilon;
// and on normalized pairs the quantized distance and the average interval
// both bracket the exact closed form. Layout: data[0] selects the bin
// count, the rest decodes through SpecialFloats so NaN/±Inf and
// zero-mass rows occur.
func FuzzFixedQuant(f *testing.F) {
	f.Add([]byte{8, 10, 20, 30, 40, 50, 60, 70, 80, 80, 70, 60, 50, 40, 30, 20, 10})
	f.Add([]byte{3, 255, 100, 100})          // NaN must be rejected
	f.Add([]byte{2, 0, 0, 0, 0})             // zero-mass rows
	f.Add([]byte{1, 250, 250})               // two point masses
	f.Add([]byte{4, 254, 253, 252, 251, 10}) // ±Inf and negatives
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		bins := int(data[0])%32 + 1
		vals := testkit.SpecialFloats(data[1:])
		if len(vals) < bins {
			return
		}
		raw := vals[:bins]
		finite := true
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
		}
		q, ok := FixedCDF(raw, FixedScale)
		if ok != finite {
			t.Fatalf("FixedCDF ok=%v for finite=%v (%v)", ok, finite, raw)
		}
		if !ok {
			return
		}
		deq := DequantizeCDF(q, FixedScale)
		cum := 0.0
		for i, v := range raw {
			cum += v
			if eps := 0.5/float64(FixedScale) + 1e-12*(1+math.Abs(cum)); math.Abs(deq[i]-cum) > eps {
				t.Fatalf("round-trip bin %d: %v vs %v exceeds ε=%v", i, deq[i], cum, eps)
			}
		}
		p := normalizePMF(raw)
		var other []float64
		if len(vals) >= 2*bins {
			second := vals[bins : 2*bins]
			for _, v := range second {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return
				}
			}
			other = normalizePMF(second)
		}
		if p == nil || other == nil {
			return
		}
		qp, _ := FixedCDF(p, FixedScale)
		qq, ok := FixedCDF(other, FixedScale)
		if !ok {
			t.Fatalf("FixedCDF rejected a normalized PMF %v", other)
		}
		exact := PMFDistance(p, other, 0.125)
		if got, eps := FixedDistance(qp, qq, 0.125, FixedScale), FixedEpsilon(bins, 0.125, FixedScale); math.Abs(got-exact) > eps {
			t.Fatalf("FixedDistance %v vs exact %v exceeds ε=%v", got, exact, eps)
		}
		lo, hi, _ := FixedAvgInterval([][]int64{qp, qq}, 0.125, FixedScale, nil)
		if lo > exact || exact > hi {
			t.Fatalf("exact %v outside fixed interval [%v, %v]", exact, lo, hi)
		}
	})
}
