package testkit

import (
	"math"
	"testing"
)

// FuzzExactWp checks ExactWp on fuzzer-shaped samples: it rejects
// non-finite samples instead of sorting garbage, and for finite ones its
// p = 1 quantile sweep matches the oracle's monotone-coupling flow.
// Layout: data[0] splits the remaining bytes into the two samples; values
// decode through SpecialFloats so NaN and ±Inf occur.
func FuzzExactWp(f *testing.F) {
	f.Add([]byte{3, 10, 20, 30, 100, 150, 200})
	f.Add([]byte{1, 255, 100}) // NaN in the first sample
	f.Add([]byte{2, 254, 253, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cut := int(data[0])%(len(data)-1) + 1
		vals := SpecialFloats(data[1:])
		xs, ys := vals[:cut], vals[cut:]
		if len(xs) == 0 || len(ys) == 0 {
			return
		}
		finite := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
		}
		w1, err := ExactWp(xs, ys, 1)
		if !finite {
			if err == nil {
				t.Fatalf("ExactWp accepted non-finite samples %v / %v", xs, ys)
			}
			return
		}
		if err != nil {
			t.Fatalf("ExactWp rejected finite samples: %v", err)
		}
		var o Oracle
		if want := o.WpFlow(xs, ys, 1); math.Abs(w1-want) > Tol {
			t.Fatalf("ExactWp(1) = %v, flow oracle = %v (xs=%v ys=%v)", w1, want, xs, ys)
		}
	})
}
