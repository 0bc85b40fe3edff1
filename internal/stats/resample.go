package stats

import (
	"errors"
	"sort"
)

// BenjaminiHochberg applies the Benjamini-Hochberg step-up procedure to a
// set of p-values, controlling the false discovery rate at level alpha. It
// returns, for each input p-value (in input order), whether the
// corresponding hypothesis is rejected. Use it when auditing many scoring
// functions or many groupings at once: testing 20 functions at p<0.05 finds
// one "unfair" function by luck alone.
func BenjaminiHochberg(pValues []float64, alpha float64) ([]bool, error) {
	if len(pValues) == 0 {
		return nil, ErrEmpty
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, errors.New("stats: alpha must be in (0,1)")
	}
	type indexed struct {
		p float64
		i int
	}
	sorted := make([]indexed, len(pValues))
	for i, p := range pValues {
		if p < 0 || p > 1 || p != p {
			return nil, errors.New("stats: p-values must be in [0,1]")
		}
		sorted[i] = indexed{p, i}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].p < sorted[b].p })
	m := float64(len(sorted))
	cutoff := -1
	for k := len(sorted) - 1; k >= 0; k-- {
		if sorted[k].p <= float64(k+1)/m*alpha {
			cutoff = k
			break
		}
	}
	out := make([]bool, len(pValues))
	for k := 0; k <= cutoff; k++ {
		out[sorted[k].i] = true
	}
	return out, nil
}
