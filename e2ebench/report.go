package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"fairrank/internal/rerank"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// workloadClasses names each workload's two timed classes, A and B, by
// the names the documentation gives their latencies.
var workloadClasses = map[string][2]string{
	"audit":   {"audit_ms: sync POST /v1/audits", "job_ms: POST /v1/jobs to terminal SSE event"},
	"pages":   {"page_ms: GET /v1/rank", "rerank_ms: re-ranked POST /v1/rank"},
	"monitor": {"batch_ms of " + monitorIDs[0], "batch_ms of " + monitorIDs[1]},
}

// tailQuantile is each workload's tail percentile. Audits run a few per
// second, so their tail is p80, which minPerClient keeps ten samples
// beyond without stretching a run on a slow host; with the 3:1
// balanced:unbalanced mix it still sits inside the unbalanced mode.
var tailQuantile = map[string]float64{"audit": 0.8, "pages": 0.9, "monitor": 0.9}

// classOf splits a workload's samples into its classes A and B.
func classOf(s *Sample) int {
	switch s.Req.Class {
	case ClassAudit, ClassPage:
		return 0
	case ClassJob, ClassRerank:
		return 1
	}
	return s.Client % 2 // monitor: one monitor per client
}

// latencies returns the durations in ms of class A and class B.
func (o *Outcome) latencies() [2][]float64 {
	var out [2][]float64
	for _, s := range o.Load.Samples {
		c := classOf(s)
		out[c] = append(out[c], ms(s.Dur))
	}
	return out
}

// work returns the workload's completed units: audits (sync and job),
// pages, or monitor events applied.
func (o *Outcome) work() float64 {
	n := 0
	for _, s := range o.Load.Samples {
		if s.Failed() {
			continue
		}
		if s.Req.Class == ClassBatch {
			for _, c := range s.EventTypes {
				n += c
			}
			continue
		}
		n++
	}
	return float64(n)
}

// EndToEnd returns the end-to-end metrics, measured with tracing off.
func (o *Outcome) EndToEnd() (map[string]Metric, error) {
	lat := o.latencies()
	q := tailQuantile[o.Cfg.Workload]
	m := map[string]Metric{
		"setup_s":     {Median(o.SetupS), "s"},
		"peak_rss_mb": {o.RSSMB, "MB"},
		"work_per_s":  {o.work() / o.Load.Elapsed.Seconds(), "1/s"},
	}
	for c, name := range []string{"class_a", "class_b"} {
		tail, err := Percentile(lat[c], q)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", o.Cfg.Workload, name, err)
		}
		m[name+"_ms_p50"] = Metric{Median(lat[c]), "ms"}
		m[name+"_ms_tail"] = Metric{tail, "ms"}
	}
	return m, nil
}

// PerLayer returns the per-layer metrics. Every name is present on every
// workload; a layer the workload does not exercise reads 0.
func (o *Outcome) PerLayer() map[string]Metric {
	tr, orc := o.Tracer, o.Oracle
	before, after := o.Before, o.After
	m := map[string]Metric{}
	set := func(name string, v float64, unit string) { m[name] = Metric{v, unit} }
	med := func(name string) float64 { return Median(tr.Durations(name)) }
	requests := float64(o.Attempted)

	// server: decode and encode spans over every replayed request; the
	// residual is the primary class's HTTP p50 minus the p50 of its summed
	// layer self times; allocation and GC come from the server's memstats.
	set("server.decode_us", 1000*med("server.decode"), "us")
	set("server.encode_us", 1000*med("server.encode"), "us")
	primary := map[string]Class{"audit": ClassAudit, "pages": ClassPage, "monitor": ClassBatch}[o.Cfg.Workload]
	httpP50 := Median(o.classDurations(primary))
	set("server.residual_ms", httpP50-Median(tr.SelfSums(primary)), "ms")
	set("server.alloc_mb_per_req", float64(after.MemStats.TotalAlloc-before.MemStats.TotalAlloc)/(1<<20)/requests, "MB")
	set("server.gc_cycles", float64(after.MemStats.NumGC-before.MemStats.NumGC), "count")
	set("server.gc_pause_ms", float64(after.MemStats.PauseTotalNs-before.MemStats.PauseTotalNs)/1e6, "ms")

	set("dataset.upload_ms", Median(o.UploadMS), "ms")
	set("dataset.open_ms", orc.OpenMS(), "ms")

	// core: engine counters are means over the first coreCountAudits sync
	// audits, a prefix fixed by the seed, so they repeat exactly.
	set("core.prepare_ms", med("core.prepare"), "ms")
	set("core.run_ms.balanced", med("core.run.balanced"), "ms")
	set("core.run_ms.unbalanced", med("core.run.unbalanced"), "ms")
	set("core.alloc_mb", Median(orc.AllocMB), "MB")
	var computed, hits, copied, pruned, interned float64
	n := min(len(orc.RunStats), coreCountAudits)
	for _, st := range orc.RunStats[:n] {
		computed += float64(st.PairsComputed)
		hits += float64(st.CacheHits)
		copied += float64(st.PairsCopied)
		pruned += float64(st.PairsPruned)
		interned += float64(st.RepsInterned)
	}
	per := func(x float64) float64 { return ratio(x, float64(n)) }
	set("core.pairs_computed", per(computed), "count")
	set("core.cache_hits", per(hits), "count")
	set("core.pairs_copied", per(copied), "count")
	set("core.pairs_pruned", per(pruned), "count")
	set("core.reps_interned", per(interned), "count")
	set("core.cache_hit_ratio", ratio(hits, hits+computed), "ratio")

	set("store.put_us", 1000*med("store.put"), "us")
	set("store.puts", Delta(before, after, "fairrank_store_puts_total"), "count")
	set("store.bytes_written", Delta(before, after, "fairrank_store_bytes_written_total"), "B")

	wait, run, overhead, subs, coalesced := o.jobSplit()
	set("jobs.wait_ms", Median(wait), "ms")
	set("jobs.run_ms", Median(run), "ms")
	set("jobs.overhead_ms", Median(overhead), "ms")
	set("jobs.coalesced_ratio", ratio(coalesced, subs), "ratio")

	set("marketplace.rank_ms", med("marketplace.rank"), "ms")
	set("marketplace.rank_query_ms", med("marketplace.rank_query"), "ms")
	set("marketplace.ndcg_ms", med("marketplace.ndcg"), "ms")
	set("marketplace.exposure_us", 1000*med("marketplace.exposure"), "us")

	set("query.compile_us", 1000*med("query.compile"), "us")
	set("query.filter_us", 1000*med("query.filter"), "us")
	set("query.match_ratio", Median(orc.MatchRatio), "ratio")

	var all []float64
	for _, name := range rerank.Rerankers() {
		d := tr.Durations("rerank.serve." + name)
		all = append(all, d...)
		set("rerank.serve_us."+name, 1000*Median(d), "us")
	}
	set("rerank.serve_us", 1000*Median(all), "us")
	th := Delta(before, after, "fairrank_rerank_table_cache_hits")
	set("rerank.table_cache_hit_ratio", ratio(th, th+Delta(before, after, "fairrank_rerank_table_cache_misses")), "ratio")

	var applyNS float64
	apply := tr.Durations("drift.apply")
	for _, d := range apply {
		applyNS += d * 1e6
	}
	set("drift.apply_ns", ratio(applyNS, float64(len(apply)*batchSize)), "ns")
	set("drift.alarm_transitions", float64(o.alarmTransitions()), "count")
	set("drift.window_retractions", Delta(before, after, "fairrank_drift_window_retractions_total"), "count")

	events, updates, rebuilds := orc.MonitorWork()
	set("monitor.distance_updates", ratio(updates, events), "1/event")
	set("monitor.rebuilds", ratio(rebuilds, events), "1/event")
	return m
}

// coreCountAudits is the seed-fixed prefix of sync audits the engine
// counters are averaged over.
const coreCountAudits = 16

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (o *Outcome) classDurations(c Class) []float64 {
	var out []float64
	for _, s := range o.Load.Samples {
		if s.Req.Class == c {
			out = append(out, ms(s.Dur))
		}
	}
	return out
}

// jobSplit reads the job records: queue wait, run time and the rest of
// the end-to-end job latency for jobs that ran, plus how many submissions
// the jobs layer coalesced.
func (o *Outcome) jobSplit() (wait, run, overhead []float64, subs, coalesced float64) {
	for _, s := range o.Load.Samples {
		if s.Req.Class != ClassJob || s.Job == nil {
			continue
		}
		subs++
		if s.Status != 202 {
			coalesced++
			continue
		}
		j := s.Job
		r := ms(j.FinishedAt.Sub(j.StartedAt))
		wait = append(wait, ms(j.StartedAt.Sub(j.EnqueuedAt)))
		run = append(run, r)
		overhead = append(overhead, ms(s.Dur)-r)
	}
	return
}

func (o *Outcome) alarmTransitions() int {
	n := 0
	for _, s := range o.Load.Samples {
		n += len(s.Alarms)
	}
	return n
}

// WriteReport prints the human-readable reading of the end-to-end metrics
// m: every figure with its unit, what it stands for on this workload and
// its sample count, then the measured input properties and any failures.
func (o *Outcome) WriteReport(w io.Writer, m map[string]Metric) {
	wl := o.Cfg.Workload
	fmt.Fprintf(w, "workload %s  seed %d  clients %d  window %.1fs  trace %v\n",
		wl, o.Cfg.Seed, Clients, o.Load.Elapsed.Seconds(), o.Cfg.Trace)
	fmt.Fprintf(w, "  setup_s          %.4f s (median of %d)\n", m["setup_s"].Value, len(o.SetupS))
	fmt.Fprintf(w, "  fail_ratio       %.4f (%d of %d)\n", ratio(float64(o.Failed), float64(o.Attempted)), o.Failed, o.Attempted)
	fmt.Fprintf(w, "  peak_rss_mb      %.1f MB (after %d requests)\n", m["peak_rss_mb"].Value, o.RSSAt)
	rate := map[string]string{"audit": "audit_per_s", "pages": "page_per_s", "monitor": "event_per_s"}[wl]
	fmt.Fprintf(w, "  work_per_s       %.2f 1/s (%s)\n", m["work_per_s"].Value, rate)
	lat := o.latencies()
	for c, label := range workloadClasses[wl] {
		p := "class_" + string(rune('a'+c)) + "_ms"
		fmt.Fprintf(w, "  %-16s p50 %.2f  p%.0f %.2f ms  (n=%d)  %s\n", p, m[p+"_p50"].Value,
			tailQuantile[wl]*100, m[p+"_tail"].Value, len(lat[c]), label)
	}
	o.writeInputs(w)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}

// writeInputs prints the run's measured input properties.
func (o *Outcome) writeInputs(w io.Writer) {
	var jobsN, repeats, gets, filtered, batches, shifted int
	types := map[string]int{}
	for _, s := range o.Load.Samples {
		switch s.Req.Class {
		case ClassJob:
			jobsN++
			if s.Req.Repeat {
				repeats++
			}
		case ClassPage:
			gets++
			if s.Req.Filtered {
				filtered++
			}
		case ClassBatch:
			batches++
			if s.Req.Shifted {
				shifted++
			}
			for t, n := range s.EventTypes {
				types[t] += n
			}
		}
	}
	switch o.Cfg.Workload {
	case "audit":
		fmt.Fprintf(w, "  inputs: repeated job specs %d of %d (%.3f)\n", repeats, jobsN, ratio(float64(repeats), float64(jobsN)))
	case "pages":
		fmt.Fprintf(w, "  inputs: q=-filtered pages %d of %d GET (%.3f)\n", filtered, gets, ratio(float64(filtered), float64(gets)))
	case "monitor":
		var parts []string
		for _, t := range sortedKeys(types) {
			parts = append(parts, fmt.Sprintf("%s %d", t, types[t]))
		}
		fmt.Fprintf(w, "  inputs: events %s; shifted batches %d of %d; alarm transitions %d\n",
			strings.Join(parts, ", "), shifted, batches, o.alarmTransitions())
	}
}

// WriteLayerSplit prints each class's median self time per layer span
// from the traced replay, next to the class's HTTP p50.
func (o *Outcome) WriteLayerSplit(w io.Writer) {
	if o.Tracer == nil {
		return
	}
	for _, c := range []Class{ClassAudit, ClassJob, ClassPage, ClassRerank, ClassBatch} {
		split := o.Tracer.SelfByName(c)
		if len(split) == 0 {
			continue
		}
		names := sortedKeys(split)
		sort.SliceStable(names, func(i, j int) bool { return split[names[i]] > split[names[j]] })
		fmt.Fprintf(w, "  layer split %s: http p50 %.3f ms, replay self-time p50 %.3f ms:", c,
			Median(o.classDurations(c)), Median(o.Tracer.SelfSums(c)))
		for _, n := range names {
			fmt.Fprintf(w, " %s %.3f", n, split[n])
		}
		fmt.Fprintln(w)
	}
	if c := ClassJob; len(o.classDurations(c)) > 0 {
		wait, run, overhead, _, _ := o.jobSplit()
		fmt.Fprintf(w, "  job records (ran): wait p50 %.3f ms, run p50 %.3f ms, rest p50 %.3f ms\n",
			Median(wait), Median(run), Median(overhead))
	}
}
