package core

import (
	"context"
	"testing"
	"testing/quick"

	"fairrank/internal/partition"
	"fairrank/internal/rng"
)

// Property: AvgPairwise is invariant under the order of the partitions.
func TestAvgPairwiseOrderInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ds := randomDataset(&testing.T{}, 40+r.Intn(100), seed)
		e, err := NewEvaluator(ds, scoreFunc, Config{})
		if err != nil {
			return false
		}
		parts := partition.SplitAll(ds, partition.Split(ds, partition.Root(ds), 0), 1)
		base := e.AvgPairwise(parts)
		shuffled := make([]*partition.Partition, len(parts))
		copy(shuffled, parts)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Equal up to floating-point summation order.
		diff := e.AvgPairwise(shuffled) - base
		return diff < 1e-12 && diff > -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every accepted balanced step strictly increases the average
// pairwise distance (by construction of the stopping rule).
func TestBalancedTraceMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ds := randomDataset(&testing.T{}, 60+int(seed%150), seed)
		e, err := NewEvaluator(ds, scoreFunc, Config{})
		if err != nil {
			return false
		}
		res := runOn(t, e, "balanced", nil)
		prev := -1.0
		for _, s := range res.Steps {
			if !s.Accepted {
				// A rejected step must not improve on the running value.
				if s.AvgDistance > prev {
					return false
				}
				continue
			}
			if prev >= 0 && s.AvgDistance <= prev {
				return false
			}
			prev = s.AvgDistance
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: all five algorithms always return valid full partitionings
// whose reported unfairness matches re-evaluation, on arbitrary seeds.
func TestAlgorithmsAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ds := randomDataset(&testing.T{}, 30+r.Intn(120), seed)
		e, err := NewEvaluator(ds, scoreFunc, Config{Bins: 5 + r.Intn(20)})
		if err != nil {
			return false
		}
		for _, alg := range []string{"balanced", "unbalanced", "r-balanced", "r-unbalanced", "all-attributes"} {
			res, err := Run(context.Background(), Spec{Algorithm: alg, Evaluator: e, Seed: seed})
			if err != nil {
				return false
			}
			if res.Partitioning.Validate(ds) != nil {
				return false
			}
			diff := e.Unfairness(res.Partitioning) - res.Unfairness
			if diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the MinPartitionSize guard is respected for every algorithm
// and random minimum.
func TestMinSizeGuardProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50 + r.Intn(150)
		min := 2 + r.Intn(20)
		ds := randomDataset(&testing.T{}, n, seed)
		e, err := NewEvaluator(ds, scoreFunc, Config{MinPartitionSize: min})
		if err != nil {
			return false
		}
		for _, res := range []*Result{runOn(t, e, "balanced", nil), runOn(t, e, "unbalanced", nil), runOn(t, e, "all-attributes", nil)} {
			for _, p := range res.Partitioning.Parts {
				if p.Size() < min && p.Size() != n {
					// The root itself may be smaller than min only if
					// the whole population is.
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
