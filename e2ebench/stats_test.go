package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := Percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	v, err := Percentile(seq(100), 0.9)
	if err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := Percentile(seq(49), 0.8); err == nil {
		t.Error("p80 of 49 samples has 9 beyond it and must be refused")
	}
	if v, err := Percentile(seq(50), 0.8); err != nil || v != 40 {
		t.Errorf("p80 of 1..50 = %v, %v; want 40", v, err)
	}
	if m := Median(seq(3)); m != 2 {
		t.Errorf("median of 1..3 = %v, want 2", m)
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}
