package core

import (
	"context"

	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/telemetry"
)

// The reference engine: the unbounded worst-attribute scan the pruning
// cascade replaced, kept as the baseline that the equivalence oracle, the
// slot-conservation test and the engine speed gates compare the default
// path against. probe, probeAll and worstAttribute are the original scan;
// referenceAlgorithms wires them into the greedy and random algorithms,
// with the terminal unbalanced average going through the shared pair
// cache. Algorithms with no attribute scan (all-attributes, the exhaustive
// solvers) run their registered implementation; on a reference evaluator
// their bound tier never fires. See RunReference in export_test.go.

// probe evaluates replacing every part with its children under attr — the
// balanced-round / candidate-attribute operation. Only distances touching
// changed parts are computed: a pair of two unchanged (aliased) parts
// copies its distance from this state's triangle. withDist=false skips
// the distance work entirely for callers that only need the final state
// (all-attributes); workers bounds the concurrent distance fill.
func (s *matState) probe(attr, workers int, withDist bool) *matState {
	if s.canceled() {
		// Return a structurally valid state so concurrent probeAll fan-outs
		// finish without nil checks; the caller sees ctx.Err() and discards.
		return s
	}
	e := s.e
	e.tel.probes.Inc()
	// Span phases: split (scatter pass), emd (fresh distance fill),
	// reduce (canonical-order average). Zero-cost when no tracer rides
	// the context; derived states keep s.ctx so later probes never
	// attach to this probe's ended span.
	pctx, psp := telemetry.StartSpan(s.ctx, "probe")
	psp.SetInt("attribute", int64(attr))
	k := len(s.parts)
	_, ssp := telemetry.StartSpan(pctx, "split")
	splits := make([]splitPart, k)
	for i := range s.parts {
		splits[i] = e.scatterSplit(s.reps[i], s.parts[i], attr)
	}
	ssp.SetInt("parents", int64(k))
	ssp.End()
	nk := 0
	for i := range splits {
		nk += len(splits[i].children)
	}
	ns := &matState{
		e:     e,
		parts: make([]*partition.Partition, 0, nk),
		reps:  make([]*rep, 0, nk),
		ctx:   s.ctx,
	}
	parent := make([]int32, 0, nk)
	aliased := make([]bool, 0, nk)
	for i := range splits {
		ns.parts = append(ns.parts, splits[i].children...)
		ns.reps = append(ns.reps, splits[i].reps...)
		for range splits[i].children {
			parent = append(parent, int32(i))
			aliased = append(aliased, splits[i].aliased)
		}
	}
	psp.SetInt("parts", int64(nk))
	if !withDist {
		psp.End()
		return ns
	}
	nd := make([]float64, nk*(nk-1)/2)
	var missing []pairRef
	m := 0
	for i := 0; i < nk; i++ {
		for j := i + 1; j < nk; j++ {
			if aliased[i] && aliased[j] && s.dist != nil {
				nd[m] = s.dist[tri(k, int(parent[i]), int(parent[j]))]
			} else {
				missing = append(missing, pairRef{int32(m), int32(i), int32(j)})
			}
			m++
		}
	}
	if len(missing) > 0 {
		_, esp := telemetry.StartSpan(pctx, "emd")
		parfill(len(missing), workers, func(lo, hi int) {
			for x, t := range missing[lo:hi] {
				if x&(ctxCheckStride-1) == ctxCheckStride-1 && s.canceled() {
					return
				}
				nd[t.slot] = e.distOf(ns.reps[t.i].data, ns.reps[t.j].data)
			}
		})
		esp.SetInt("pairs", int64(len(missing)))
		esp.End()
		e.pairs.misses.Add(int64(len(missing)))
		e.tel.computed(int64(len(missing)))
	}
	e.copiedAcct(int64(len(nd) - len(missing)))
	ns.dist = nd
	_, rsp := telemetry.StartSpan(pctx, "reduce")
	ns.avg = avgOf(nd)
	rsp.SetInt("pairs", int64(len(nd)))
	rsp.End()
	psp.SetInt("pairs_fresh", int64(len(missing)))
	psp.SetInt("pairs_copied", int64(len(nd)-len(missing)))
	psp.End()
	return ns
}

// probeAll probes every candidate attribute, fanning the scans across
// Config.Parallelism goroutines; leftover parallelism is handed to each
// probe's distance fill. Every probe's summation order is fixed, so the
// results are identical to a serial scan.
func (s *matState) probeAll(attrs []int) []*matState {
	out := make([]*matState, len(attrs))
	p := s.e.cfg.Parallelism
	outer := p
	if outer > len(attrs) {
		outer = len(attrs)
	}
	inner := 1
	if outer >= 1 && p > outer {
		inner = p / outer
	}
	// One "scan" span per round; the concurrent probes become its
	// children. Probing through a shallow copy whose ctx carries the
	// scan span keeps this state's ctx clean for subsequent rounds.
	src := s
	sctx, sp := telemetry.StartSpan(s.ctx, "scan")
	if sp != nil {
		sp.SetInt("attrs", int64(len(attrs)))
		sp.SetInt("parts", int64(len(s.parts)))
		cp := *s
		cp.ctx = sctx
		src = &cp
	}
	parforeach(len(attrs), outer, func(x int) {
		out[x] = src.probe(attrs[x], inner, true)
	})
	sp.End()
	if sp != nil {
		// Result states must not parent future spans under the ended
		// scan span (a cancelled probe returns src itself, hence the
		// second check).
		for _, st := range out {
			if st != nil && st != s {
				st.ctx = s.ctx
			}
		}
	}
	return out
}

// worstAttribute is the paper's greedy choice: probe every remaining
// attribute (concurrently, under Config.Parallelism) and keep the one whose
// split yields the highest average pairwise distance. Ties break toward the
// lowest attribute index, making runs deterministic regardless of the scan
// order.
func worstAttribute(s *matState, attrs []int) (int, *matState) {
	probes := s.probeAll(attrs)
	best := 0
	for x := 1; x < len(probes); x++ {
		if probes[x].avg > probes[best].avg {
			best = x
		}
	}
	return attrs[best], probes[best]
}

// referenceRandom is randomAttribute over the original probe.
func referenceRandom(r *rng.RNG) chooser {
	return func(s *matState, attrs []int) (int, *matState) {
		a := attrs[r.Intn(len(attrs))]
		return a, s.probe(a, s.e.cfg.Parallelism, true)
	}
}

// referenceAlgorithms maps the scanning algorithms to their reference
// implementations, with the registry's seed derivations.
var referenceAlgorithms = map[string]RunFunc{
	"balanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return balancedWith(ctx, e, spec.Attrs, worstAttribute, "balanced", spec.Progress)
	},
	"r-balanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return balancedWith(ctx, e, spec.Attrs, referenceRandom(rng.New(spec.Seed+1)), "r-balanced", spec.Progress)
	},
	"unbalanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return unbalancedWith(ctx, e, spec.Attrs, worstAttribute, e.AvgPairwise, "unbalanced", spec.Progress)
	},
	"r-unbalanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return unbalancedWith(ctx, e, spec.Attrs, referenceRandom(rng.New(spec.Seed+2)), e.AvgPairwise, "r-unbalanced", spec.Progress)
	},
}

// newReferenceEvaluator is NewEvaluator with the quantization hook
// cleared: its reps carry no quantized CDF, so every bound declines.
func newReferenceEvaluator(spec Spec) (*Evaluator, error) {
	if e := spec.Evaluator; e != nil {
		spec.Dataset, spec.Func, spec.Config = e.Dataset(), e.Func(), e.Config()
	}
	e, err := NewEvaluator(spec.Dataset, spec.Func, spec.Config)
	if err != nil {
		return nil, err
	}
	e.reps.quant = nil
	return e, nil
}

// runReference is Run through the reference engine. It always builds a
// fresh reference evaluator (from spec.Evaluator's inputs when one is
// given), so it never shares caches or quantized reps with a default run.
func runReference(ctx context.Context, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := spec.Algorithm
	if name == "" {
		name = "balanced"
	}
	fn, ok := referenceAlgorithms[name]
	if !ok {
		var err error
		if fn, err = Lookup(name); err != nil {
			return nil, err
		}
	}
	e, err := newReferenceEvaluator(spec)
	if err != nil {
		return nil, err
	}
	spec.Evaluator = e
	return runWith(ctx, spec, name, fn)
}
