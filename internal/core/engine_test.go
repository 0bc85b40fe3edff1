package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

// BenchmarkEngineTable2 measures the default engine (the pruning cascade,
// DESIGN.md §9) against the test-only reference scan on the Table 2 suite
// — the paper's five algorithms at 7300 workers (500 under -short), in
// simulate.AllAlgorithms row order. `make bench-prune` gates the paired
// per-round speedup with cmd/benchdiff. Cell order matters twice:
// engine=reference/engine=default are adjacent sub-runs of the same cell
// so benchdiff's per-round pairing compares like with like, and the cell
// order mirrors the root package's BenchmarkTable2 so the control gate
// can pair the two benchmarks' lines cell for cell.
func BenchmarkEngineTable2(b *testing.B) {
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		b.Fatal(err)
	}
	workers := simulate.LargePopulation
	if testing.Short() {
		workers = 500
	}
	ds, err := simulate.PaperWorkers(workers, 42)
	if err != nil {
		b.Fatal(err)
	}
	engines := []struct {
		name string
		run  func(context.Context, core.Spec) (*core.Result, error)
	}{
		{"reference", core.RunReference},
		{"default", core.Run},
	}
	for _, f := range []scoring.Func{funcs[0], funcs[3]} {
		for _, alg := range simulate.AllAlgorithms {
			for _, eng := range engines {
				b.Run(fmt.Sprintf("f=%s,a=%s/engine=%s", f.Name(), alg, eng.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := eng.run(context.Background(), core.Spec{
							Algorithm: string(alg), Dataset: ds, Func: f, Config: core.Config{Bins: 10}, Seed: 42,
						}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// The default engine's allocation gate at paper scale: a balanced audit of
// 7300 workers must allocate at most a fifth of the bytes the reference
// scan allocates (measured: about 23 MB against 181 MB), because the
// cascade's lean fill never builds a per-candidate work list and pruned
// candidates never get a triangle.
func TestDefaultEngineAllocatesFifthOfReference(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale audit")
	}
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := simulate.PaperWorkers(simulate.LargePopulation, 42)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Algorithm: "balanced", Dataset: ds, Func: funcs[0], Config: core.Config{Bins: 10}}
	measure := func(run func(context.Context, core.Spec) (*core.Result, error)) (uint64, *core.Result) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := run(context.Background(), spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	refBytes, ref := measure(core.RunReference)
	defBytes, def := measure(core.Run)
	if def.Unfairness != ref.Unfairness {
		t.Fatalf("unfairness %v (default) vs %v (reference)", def.Unfairness, ref.Unfairness)
	}
	t.Logf("allocated %d B (default) vs %d B (reference)", defBytes, refBytes)
	if defBytes*5 > refBytes {
		t.Fatalf("default engine allocated %d B, more than a fifth of the reference's %d B", defBytes, refBytes)
	}
}
