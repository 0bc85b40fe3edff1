package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie strictly above a
// reported percentile, so a tail figure never rests on a handful of points.
const minBeyond = 10

// Percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses a tail percentile with fewer than minBeyond samples above it; the
// median is exempt, since it has half the sample on either side.
func Percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", q*100)
	}
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("percentile q=%g outside (0, 1)", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := len(s) - 1 - idx; q > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(s), beyond, minBeyond)
	}
	return s[idx], nil
}

// Median is Percentile(xs, 0.5); an empty sample yields 0.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, _ := Percentile(xs, 0.5)
	return m
}
