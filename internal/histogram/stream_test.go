package histogram

import (
	"math"
	"sort"
	"testing"

	"fairrank/internal/rng"
)

// Stream is a streaming histogram sketch after Ben-Haim & Tom-Tov ("A
// Streaming Parallel Decision Tree Algorithm", JMLR 2010). It maintains at
// most maxCentroids (value, count) centroids and merges the closest pair
// when it overflows. It suits scores whose range is not known up front:
// the sketch is built in one pass and then materialized into a fixed-bin
// Histogram. It has no production caller, so it lives beside its tests
// rather than in the package.
type Stream struct {
	maxCentroids int
	centroids    []centroid // kept sorted by value
	total        float64
	min, max     float64
}

type centroid struct {
	value float64
	count float64
}

// NewStream returns a streaming sketch holding at most maxCentroids
// centroids. maxCentroids must be >= 2.
func NewStream(maxCentroids int) *Stream {
	if maxCentroids < 2 {
		maxCentroids = 2
	}
	return &Stream{
		maxCentroids: maxCentroids,
		min:          math.Inf(1),
		max:          math.Inf(-1),
	}
}

// Add records one observation.
func (s *Stream) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.total++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	i := sort.Search(len(s.centroids), func(i int) bool { return s.centroids[i].value >= v })
	if i < len(s.centroids) && s.centroids[i].value == v {
		s.centroids[i].count++
		return
	}
	s.centroids = append(s.centroids, centroid{})
	copy(s.centroids[i+1:], s.centroids[i:])
	s.centroids[i] = centroid{value: v, count: 1}
	if len(s.centroids) > s.maxCentroids {
		s.mergeClosest()
	}
}

func (s *Stream) mergeClosest() {
	best := 0
	bestGap := math.Inf(1)
	for i := 0; i+1 < len(s.centroids); i++ {
		gap := s.centroids[i+1].value - s.centroids[i].value
		if gap < bestGap {
			bestGap = gap
			best = i
		}
	}
	a, b := s.centroids[best], s.centroids[best+1]
	merged := centroid{
		value: (a.value*a.count + b.value*b.count) / (a.count + b.count),
		count: a.count + b.count,
	}
	s.centroids[best] = merged
	s.centroids = append(s.centroids[:best+1], s.centroids[best+2:]...)
}

// Total returns the number of observations recorded.
func (s *Stream) Total() float64 { return s.total }

// Range returns the observed min and max. Both are infinities when empty.
func (s *Stream) Range() (min, max float64) { return s.min, s.max }

// Materialize converts the sketch into a fixed-bin Histogram over the
// observed range (or [0,1] when empty/degenerate). Each centroid's mass is
// deposited at its mean value.
func (s *Stream) Materialize(bins int) *Histogram {
	lo, hi := s.min, s.max
	if !(hi > lo) {
		lo, hi = 0, 1
		if s.total > 0 {
			// Single distinct value: center a unit-wide range on it.
			lo, hi = s.min-0.5, s.min+0.5
		}
	}
	h := MustNew(bins, lo, hi)
	for _, c := range s.centroids {
		h.AddWeighted(c.value, c.count)
	}
	return h
}

// Merge folds another sketch into s.
func (s *Stream) Merge(o *Stream) {
	for _, c := range o.centroids {
		// Weighted insertion: replay the centroid as a single weighted point.
		s.addWeighted(c.value, c.count)
	}
}

func (s *Stream) addWeighted(v, w float64) {
	if w <= 0 || math.IsNaN(v) {
		return
	}
	s.total += w
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	i := sort.Search(len(s.centroids), func(i int) bool { return s.centroids[i].value >= v })
	if i < len(s.centroids) && s.centroids[i].value == v {
		s.centroids[i].count += w
		return
	}
	s.centroids = append(s.centroids, centroid{})
	copy(s.centroids[i+1:], s.centroids[i:])
	s.centroids[i] = centroid{value: v, count: w}
	if len(s.centroids) > s.maxCentroids {
		s.mergeClosest()
	}
}

func TestStreamExactWhenSmall(t *testing.T) {
	s := NewStream(100)
	vals := []float64{0.1, 0.2, 0.3, 0.2}
	for _, v := range vals {
		s.Add(v)
	}
	if s.Total() != 4 {
		t.Fatalf("Total = %v", s.Total())
	}
	min, max := s.Range()
	if min != 0.1 || max != 0.3 {
		t.Fatalf("Range = %v,%v", min, max)
	}
}

func TestStreamCapsCentroids(t *testing.T) {
	s := NewStream(8)
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		s.Add(r.Float64())
	}
	if len(s.centroids) > 8 {
		t.Fatalf("%d centroids, cap 8", len(s.centroids))
	}
	if s.Total() != 10000 {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestStreamIgnoresNaN(t *testing.T) {
	s := NewStream(8)
	s.Add(math.NaN())
	if s.Total() != 0 {
		t.Fatal("NaN was recorded")
	}
}

func TestStreamMaterializePreservesMassAndShape(t *testing.T) {
	s := NewStream(64)
	r := rng.New(2)
	const n = 50000
	for i := 0; i < n; i++ {
		s.Add(r.Float64())
	}
	h := s.Materialize(10)
	if math.Abs(h.Total()-n) > 1e-6 {
		t.Fatalf("materialized total = %v, want %d", h.Total(), n)
	}
	// Uniform input: each of 10 bins should hold roughly n/10.
	for i := 0; i < 10; i++ {
		if math.Abs(h.Count(i)-n/10) > 0.15*n/10 {
			t.Errorf("bin %d mass %v, want ~%v", i, h.Count(i), n/10)
		}
	}
}

func TestStreamMaterializeEmpty(t *testing.T) {
	h := NewStream(8).Materialize(5)
	if !h.Empty() || h.Bins() != 5 {
		t.Fatalf("empty materialize: total=%v bins=%d", h.Total(), h.Bins())
	}
}

func TestStreamMaterializeSingleValue(t *testing.T) {
	s := NewStream(8)
	s.Add(0.7)
	s.Add(0.7)
	h := s.Materialize(4)
	if h.Total() != 2 {
		t.Fatalf("total = %v", h.Total())
	}
	if !(h.Max() > h.Min()) {
		t.Fatalf("degenerate range [%v,%v]", h.Min(), h.Max())
	}
}

func TestStreamMerge(t *testing.T) {
	a, b := NewStream(32), NewStream(32)
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		a.Add(r.Float64())
		b.Add(r.Float64() + 1)
	}
	a.Merge(b)
	if a.Total() != 200 {
		t.Fatalf("merged total = %v", a.Total())
	}
	min, max := a.Range()
	if min >= 1 || max < 1 {
		t.Fatalf("merged range = [%v,%v]", min, max)
	}
}

func TestStreamTinyCapClamped(t *testing.T) {
	s := NewStream(1) // clamped to 2
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	if len(s.centroids) > 2 {
		t.Fatalf("cap not clamped: %d centroids", len(s.centroids))
	}
	if s.Total() != 10 {
		t.Fatalf("total = %v", s.Total())
	}
}
