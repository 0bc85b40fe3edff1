package core

import (
	"context"
	"math"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Cat("Gender", "Male", "Female"),
			dataset.Cat("Language", "English", "Indian", "Other"),
		},
		Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
}

// scoreFunc reads the "Score" observed attribute directly.
var scoreFunc = scoring.ScoreFunc{
	FuncName: "identity",
	Fn: func(ds *dataset.Dataset, i int) float64 {
		return ds.Observed(0, i)
	},
}

func addWorker(b *dataset.Builder, gender, lang string, score float64) {
	b.Add("w", map[string]any{"Gender": gender, "Language": lang},
		map[string]any{"Score": score})
}

func randomDataset(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	r := rng.New(seed)
	b := dataset.NewBuilder(testSchema())
	for i := 0; i < n; i++ {
		addWorker(b, rng.Pick(r, []string{"Male", "Female"}),
			rng.Pick(r, []string{"English", "Indian", "Other"}), r.Float64())
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mustEval(t *testing.T, ds *dataset.Dataset, cfg Config) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(ds, scoreFunc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runOn runs a registered algorithm against e through Run, failing t on
// error. The random baselines draw from Spec.Seed 0.
func runOn(t testing.TB, e *Evaluator, alg string, attrs []int) *Result {
	t.Helper()
	res, err := Run(context.Background(), Spec{Algorithm: alg, Evaluator: e, Attrs: attrs})
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return res
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil, scoreFunc, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := randomDataset(t, 10, 1)
	if _, err := NewEvaluator(ds, nil, Config{}); err == nil {
		t.Error("nil function accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	ds := randomDataset(t, 10, 1)
	e := mustEval(t, ds, Config{})
	cfg := e.Config()
	if cfg.Bins != 10 || cfg.Parallelism < 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	ds := randomDataset(t, 10, 2)
	e := mustEval(t, ds, Config{})
	if e.Dataset() != ds || e.Func().Name() != "identity" {
		t.Error("accessors wrong")
	}
	if len(e.Scores()) != 10 {
		t.Error("scores not precomputed")
	}
	if got := e.Attrs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Attrs = %v", got)
	}
}

func TestHistogramMatchesScores(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)
	addWorker(b, "Male", "English", 0.95)
	ds, _ := b.Build()
	e := mustEval(t, ds, Config{Bins: 10})
	h := e.Histogram(partition.Root(ds))
	if h.Count(0) != 1 || h.Count(9) != 1 || h.Total() != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestPairDistanceKnown(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)   // bin 0
	addWorker(b, "Female", "English", 0.95) // bin 9
	ds, _ := b.Build()
	e := mustEval(t, ds, Config{Bins: 10})
	parts := partition.Split(ds, partition.Root(ds), 0)
	if len(parts) != 2 {
		t.Fatal("expected two gender partitions")
	}
	d := e.PairDistance(parts[0], parts[1])
	if math.Abs(d-0.9) > 1e-12 {
		t.Fatalf("pair distance = %v, want 0.9", d)
	}
	// Second call must hit the cache (no new misses).
	_, _, misses := e.CacheStats()
	_ = e.PairDistance(parts[1], parts[0])
	_, _, misses2 := e.CacheStats()
	if misses2 != misses {
		t.Fatal("symmetric pair not cached")
	}
}

func TestAvgPairwiseDegenerate(t *testing.T) {
	ds := randomDataset(t, 10, 3)
	e := mustEval(t, ds, Config{})
	if got := e.AvgPairwise(nil); got != 0 {
		t.Errorf("AvgPairwise(nil) = %v", got)
	}
	if got := e.AvgPairwise([]*partition.Partition{partition.Root(ds)}); got != 0 {
		t.Errorf("single partition = %v", got)
	}
	if got := e.Unfairness(nil); got != 0 {
		t.Errorf("Unfairness(nil) = %v", got)
	}
}

func TestAvgPairwiseSerialMatchesParallel(t *testing.T) {
	// Force a partitioning with enough parts that the missing-pair fill
	// actually fans out (well past parallelFillThreshold pairs), using a
	// schema with one high-cardinality attribute.
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Num("Cell", 0, 1, 100)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	r := rng.New(11)
	b := dataset.NewBuilder(schema)
	for i := 0; i < 2000; i++ {
		b.Add("w", map[string]any{"Cell": r.Float64()}, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := scoring.ScoreFunc{FuncName: "s", Fn: func(ds *dataset.Dataset, i int) float64 { return ds.Observed(0, i) }}

	serial, _ := NewEvaluator(ds, f, Config{Parallelism: 1})
	par, _ := NewEvaluator(ds, f, Config{Parallelism: 4})
	parts := partition.Split(ds, partition.Root(ds), 0)
	if pairs := len(parts) * (len(parts) - 1) / 2; pairs < parallelFillThreshold {
		t.Fatalf("only %d pairs; need >= %d for this test", pairs, parallelFillThreshold)
	}
	a := serial.AvgPairwise(parts)
	b2 := par.AvgPairwise(parts)
	if a != b2 {
		t.Fatalf("serial %v != parallel %v (must be bit-identical)", a, b2)
	}
}

func TestCacheStatsParallelAccounting(t *testing.T) {
	// The old evaluator's parallel branch bypassed the pair cache and never
	// counted its distance computations, so CacheStats lied for exactly the
	// runs the ablation benchmarks care about. Pin the fixed behavior: a
	// parallel AvgPairwise over many parts populates the cache and counts
	// every computed distance as a miss, and a repeat run computes nothing.
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Num("Cell", 0, 1, 100)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	r := rng.New(5)
	b := dataset.NewBuilder(schema)
	for i := 0; i < 2000; i++ {
		b.Add("w", map[string]any{"Cell": r.Float64()}, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := scoring.ScoreFunc{FuncName: "s", Fn: func(ds *dataset.Dataset, i int) float64 { return ds.Observed(0, i) }}
	e, err := NewEvaluator(ds, f, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Split(ds, partition.Root(ds), 0)
	k := len(parts)
	if k < 64 {
		t.Fatalf("only %d parts; need a large partitioning", k)
	}
	_ = e.AvgPairwise(parts)
	wantPairs := k * (k - 1) / 2
	hists, pairs, misses := e.CacheStats()
	if hists != k {
		t.Errorf("histograms = %d, want %d", hists, k)
	}
	if pairs != wantPairs {
		t.Errorf("cached pairs = %d, want %d", pairs, wantPairs)
	}
	if misses != wantPairs {
		t.Errorf("misses = %d, want %d", misses, wantPairs)
	}
	_ = e.AvgPairwise(parts)
	if _, _, again := e.CacheStats(); again != misses {
		t.Errorf("repeat run computed %d new distances, want 0", again-misses)
	}
}

func TestMetricSelection(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)
	addWorker(b, "Female", "English", 0.95)
	ds, _ := b.Build()
	parts := partition.Split(ds, partition.Root(ds), 0)

	metrics := map[emd.Metric]float64{
		emd.MetricEMD:       0.9,
		emd.MetricL1:        2,
		emd.MetricTV:        1,
		emd.MetricChiSquare: 2,
		emd.MetricJS:        1,
		emd.MetricKS:        1,
		emd.MetricHellinger: 1,
	}
	for m, want := range metrics {
		e := mustEval(t, ds, Config{Bins: 10, Metric: m})
		got := e.PairDistance(parts[0], parts[1])
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("metric %v distance = %v, want %v", m, got, want)
		}
	}
}

func TestGroundIndexUnit(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)
	addWorker(b, "Female", "English", 0.95)
	ds, _ := b.Build()
	parts := partition.Split(ds, partition.Root(ds), 0)
	e := mustEval(t, ds, Config{Bins: 10, Ground: emd.GroundIndex})
	if d := e.PairDistance(parts[0], parts[1]); math.Abs(d-1) > 1e-12 {
		t.Fatalf("index-ground distance = %v, want 1", d)
	}
}
