package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/drift"
	"fairrank/internal/jobs"
	"fairrank/internal/marketplace"
	"fairrank/internal/monitor"
	"fairrank/internal/query"
	"fairrank/internal/rerank"
	"fairrank/internal/scoring"
	"fairrank/internal/store"
	"fairrank/internal/telemetry"
)

// The wire shapes below mirror the server's JSON responses field for
// field, so a decoded response and a replayed one compare directly.

type partitionOut struct {
	Label string `json:"label"`
	Size  int    `json:"size"`
}

// auditOut is the part of an audit or job result that must be identical
// to core.Run; ids and wall-clock fields are left out.
type auditOut struct {
	Dataset    string         `json:"dataset"`
	Algorithm  string         `json:"algorithm"`
	Unfairness float64        `json:"unfairness"`
	Partitions []partitionOut `json:"partitions"`
}

type auditResponse struct {
	ID string `json:"id"`
	auditOut
	ElapsedSecs float64 `json:"elapsed_seconds"`
}

type rankedEntry struct {
	Rank   int     `json:"rank"`
	Worker string  `json:"worker"`
	Score  float64 `json:"score"`
}

type rankPostResponse struct {
	Ranking          []rankedEntry `json:"ranking"`
	Algorithm        string        `json:"algorithm,omitempty"`
	NDCG             *float64      `json:"ndcg,omitempty"`
	DisparityBefore  *float64      `json:"disparity_before,omitempty"`
	DisparityAfter   *float64      `json:"disparity_after,omitempty"`
	UnfairnessBefore *float64      `json:"unfairness_before,omitempty"`
	UnfairnessAfter  *float64      `json:"unfairness_after,omitempty"`
}

type batchResponse struct {
	Applied int                `json:"applied"`
	Alarms  []drift.AlarmEvent `json:"alarms"`
}

type monitorRecord struct {
	Spec   drift.Spec         `json:"spec"`
	Alarms []drift.AlarmState `json:"alarms,omitempty"`
}

type monitorStatus struct {
	drift.Status
	Dataset string `json:"dataset"`
}

// Oracle replays requests in-process by calling each layer's public
// functions in the order the server's handler calls them. Its outputs are
// the expected responses; with a Tracer it also times every call.
type Oracle struct {
	ds  *dataset.Dataset
	reg *telemetry.Registry
	tr  *Tracer
	db  *store.DB // benchmark-owned store for store.put spans
	// monReg counts the replayed monitors' delta-path work.
	monReg *telemetry.Registry

	audits  map[string]*auditOut
	pages   map[string][]byte
	tasks   map[string][]byte // stored task records, as the server keeps them
	openDur []float64

	// Per sync audit, in replay order: engine counters and allocation.
	RunStats []core.RunStats
	AllocMB  []float64
	// Per filtered page: matched share of the population.
	MatchRatio []float64
}

// NewOracle opens the world's snapshot from a file in dir, exactly as the
// server maps an upload, and a store for the replayed writes.
func NewOracle(w *World, dir string, tr *Tracer) (*Oracle, error) {
	o := &Oracle{reg: telemetry.NewRegistry(), monReg: telemetry.NewRegistry(), tr: tr,
		audits: map[string]*auditOut{}, pages: map[string][]byte{}, tasks: map[string][]byte{}}
	path := filepath.Join(dir, "snapshot.frsnap")
	if err := os.WriteFile(path, w.Snapshot, 0o644); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		if o.ds != nil {
			o.ds.Close()
		}
		t0 := time.Now()
		ds, err := dataset.OpenSnapshot(path)
		if err != nil {
			return nil, fmt.Errorf("open snapshot: %w", err)
		}
		o.openDur = append(o.openDur, ms(time.Since(t0)))
		o.ds = ds
	}
	db, err := store.Open(filepath.Join(dir, "replay.db"), store.Options{})
	if err != nil {
		return nil, err
	}
	o.db = db
	for _, t := range w.Tasks {
		raw, _ := json.Marshal(t)
		o.tasks[t.ID] = raw
	}
	return o, nil
}

// Close releases the snapshot mapping and the store.
func (o *Oracle) Close() {
	o.ds.Close()
	o.db.Close()
}

// OpenMS is the median in-process dataset.OpenSnapshot time.
func (o *Oracle) OpenMS() float64 { return Median(o.openDur) }

func check(err *error, e error) {
	if *err == nil {
		*err = e
	}
}

// Audit replays a sync POST /v1/audits body.
func (o *Oracle) Audit(body []byte, id int) (*auditOut, error) {
	tr := o.tr
	tr.Begin(ClassAudit)
	var err error
	var req auditBody
	tr.Time("server.decode", -1, func() { check(&err, json.NewDecoder(bytes.NewReader(body)).Decode(&req)) })
	var f *scoring.Linear
	tr.Time("scoring.new", -1, func() {
		var e error
		f, e = scoring.NewLinear("audit-fn", req.Weights)
		check(&err, e)
	})
	if err != nil {
		return nil, err
	}
	var e *core.Evaluator
	tr.Time("core.prepare", -1, func() {
		var er error
		e, er = core.NewEvaluator(o.ds, f, core.Config{Metrics: o.reg})
		check(&err, er)
	})
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	var res *core.Result
	tr.Time("core.run."+req.Algorithm, -1, func() {
		var er error
		res, er = core.Run(context.Background(), core.Spec{Algorithm: req.Algorithm, Evaluator: e})
		check(&err, er)
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		o.AllocMB = append(o.AllocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	o.RunStats = append(o.RunStats, res.Stats)
	out := &auditOut{Dataset: req.Dataset, Algorithm: res.Algorithm, Unfairness: res.Unfairness}
	var record []byte
	tr.Time("server.encode", -1, func() {
		schema := o.ds.Schema()
		for _, p := range res.Partitioning.Parts {
			out.Partitions = append(out.Partitions, partitionOut{Label: p.Label(schema), Size: p.Size()})
		}
		sort.Slice(out.Partitions, func(i, j int) bool { return out.Partitions[i].Label < out.Partitions[j].Label })
		resp := auditResponse{ID: fmt.Sprintf("audit-%06d", id), auditOut: *out, ElapsedSecs: res.Elapsed.Seconds()}
		record, _ = json.Marshal(resp)
		_ = json.NewEncoder(discard{}).Encode(resp)
	})
	if tr != nil {
		tr.Time("store.put", -1, func() { check(&err, o.db.Put("audits", fmt.Sprintf("audit-%06d", id), record)) })
	}
	o.audits[string(body)] = out
	return out, err
}

// JobSubmit replays the submission half of POST /v1/jobs: strict spec
// decoding, resolution and the canonical hash. The run itself is the
// server's job record; its expected result is the sync audit of the
// same spec.
func (o *Oracle) JobSubmit(body []byte) error {
	tr := o.tr
	tr.Begin(ClassJob)
	var err error
	var sp jobs.Spec
	tr.Time("server.decode", -1, func() {
		var e error
		sp, e = jobs.DecodeSpec(body)
		check(&err, e)
	})
	if err != nil {
		return err
	}
	tr.Time("jobs.resolve", -1, func() {
		f, e := scoring.NewLinear("job-fn", sp.Weights)
		if e == nil {
			e = f.Validate(o.ds.Schema())
		}
		check(&err, e)
		if e == nil {
			_ = core.Spec{Algorithm: sp.Algorithm, Dataset: o.ds, Func: f}.Hash()
		}
	})
	return err
}

// Expected returns the replayed audit result for an audit or job body.
func (o *Oracle) Expected(body []byte) (*auditOut, bool) {
	out, ok := o.audits[string(body)]
	return out, ok
}

// task decodes the stored task record the way the rank handlers do.
func (o *Oracle) task(id string) (TaskSpec, error) {
	var t TaskSpec
	raw, ok := o.tasks[id]
	if !ok {
		return t, fmt.Errorf("task %q not found", id)
	}
	return t, json.Unmarshal(raw, &t)
}

func (o *Oracle) market(t TaskSpec) (*marketplace.Marketplace, error) {
	m, err := marketplace.New(o.ds)
	if err != nil {
		return nil, err
	}
	return m, m.PostTask(marketplace.Task{ID: t.ID, Title: t.Title, Weights: t.Weights})
}

// Page replays GET /v1/rank and returns the expected response JSON.
func (o *Oracle) Page(path string) ([]byte, error) {
	tr := o.tr
	tr.Begin(ClassPage)
	var err error
	var t TaskSpec
	var q string
	k := 0
	tr.Time("server.decode", -1, func() {
		u, e := url.Parse(path)
		check(&err, e)
		if e != nil {
			return
		}
		qp := u.Query()
		q = qp.Get("q")
		k, e = strconv.Atoi(qp.Get("k"))
		check(&err, e)
		t, e = o.task(qp.Get("task"))
		check(&err, e)
	})
	if err != nil {
		return nil, err
	}
	var ranked []marketplace.RankedWorker
	if q == "" {
		tr.Time("marketplace.rank", -1, func() {
			m, e := o.market(t)
			if e == nil {
				ranked, e = m.Rank(t.ID, k)
			}
			check(&err, e)
		})
	} else {
		parent := tr.Time("marketplace.rank_query", -1, func() {
			m, e := o.market(t)
			if e == nil {
				ranked, e = m.RankQuery(t.ID, q, k)
			}
			check(&err, e)
		})
		// RankQuery parses, compiles and filters once; time those calls
		// on their own and attribute them to it as its children.
		var c *query.Compiled
		tr.Time("query.compile", parent, func() {
			expr, e := query.Parse(q)
			if e == nil {
				c, e = query.Compile(expr, o.ds.Schema())
			}
			check(&err, e)
		})
		if err != nil {
			return nil, err
		}
		var matched []int
		tr.Time("query.filter", parent, func() { matched = c.Filter(o.ds) })
		o.MatchRatio = append(o.MatchRatio, float64(len(matched))/float64(o.ds.N()))
	}
	if err != nil {
		return nil, err
	}
	var out []byte
	tr.Time("server.encode", -1, func() { out = encode(entries(o.ds, ranked)) })
	o.pages[path] = out
	return out, nil
}

// Rerank replays POST /v1/rank with a re-ranker and returns the expected
// response JSON.
func (o *Oracle) Rerank(body []byte) ([]byte, error) {
	tr := o.tr
	tr.Begin(ClassRerank)
	var err error
	var req rankBody
	var t TaskSpec
	tr.Time("server.decode", -1, func() {
		check(&err, json.NewDecoder(bytes.NewReader(body)).Decode(&req))
		var e error
		t, e = o.task(req.Task)
		check(&err, e)
	})
	if err != nil {
		return nil, err
	}
	var pool []marketplace.RankedWorker
	tr.Time("marketplace.rank", -1, func() {
		m, e := o.market(t)
		if e == nil {
			pool, e = m.Rank(t.ID, 0)
		}
		check(&err, e)
	})
	if err != nil {
		return nil, err
	}
	k := min(req.K, len(pool))
	attr := o.ds.Schema().ProtectedIndex(req.Attribute)
	var page []marketplace.RankedWorker
	tr.Time("rerank.serve."+req.Algorithm, -1, func() {
		var e error
		page, e = rerank.Serve(o.reg, req.Algorithm, o.ds, attr, pool, k, req.Params)
		check(&err, e)
	})
	if err != nil {
		return nil, err
	}
	before := pool[:len(page)]
	resp := rankPostResponse{Algorithm: req.Algorithm}
	tr.Time("marketplace.ndcg", -1, func() {
		relevance := make([]float64, o.ds.N())
		for _, rw := range pool {
			relevance[rw.Worker] = rw.Score
		}
		if v, e := marketplace.NDCG(relevance, page); e == nil {
			resp.NDCG = &v
		}
	})
	var expBefore, expAfter map[string]float64
	var errB, errA error
	tr.Time("marketplace.exposure", -1, func() { expBefore, errB = marketplace.GroupExposure(o.ds, attr, before) })
	tr.Time("marketplace.exposure", -1, func() { expAfter, errA = marketplace.GroupExposure(o.ds, attr, page) })
	var out []byte
	tr.Time("server.encode", -1, func() {
		if errB == nil {
			resp.DisparityBefore = finite(marketplace.ExposureDisparity(expBefore))
		}
		if errA == nil {
			resp.DisparityAfter = finite(marketplace.ExposureDisparity(expAfter))
		}
		resp.Ranking = entries(o.ds, page)
		out = encode(resp)
	})
	o.pages[string(body)] = out
	return out, nil
}

// ExpectedPage returns the replayed response for a page key.
func (o *Oracle) ExpectedPage(key string) ([]byte, bool) {
	out, ok := o.pages[key]
	return out, ok
}

func finite(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

func entries(ds *dataset.Dataset, page []marketplace.RankedWorker) []rankedEntry {
	out := make([]rankedEntry, len(page))
	for i, rw := range page {
		out[i] = rankedEntry{Rank: rw.Rank, Worker: ds.ID(rw.Worker), Score: rw.Score}
	}
	return out
}

// encode is the server's writeJSON encoding.
func encode(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Monitor is the replay of one server-side monitor.
type Monitor struct {
	o     *Oracle
	watch *drift.Watch
	seq   int64
}

// NewMonitor builds the watch the server builds for spec: seeded from the
// dataset's rows scored by the spec's weights, then baseline-sealed.
func (o *Oracle) NewMonitor(spec drift.Spec) (*Monitor, error) {
	raw, _ := json.Marshal(spec)
	spec, err := drift.DecodeSpec(raw)
	if err != nil {
		return nil, err
	}
	w, err := drift.NewWatch(o.ds.Schema(), spec)
	if err != nil {
		return nil, err
	}
	w.SetMetrics(o.reg)
	f, err := scoring.NewLinear(spec.ID, spec.Weights)
	if err != nil {
		return nil, err
	}
	schema := o.ds.Schema()
	attrs := make([]int, len(spec.Attributes))
	for i, name := range spec.Attributes {
		attrs[i] = schema.ProtectedIndex(name)
	}
	for i := 0; i < o.ds.N(); i++ {
		prot := make(map[string]any, len(attrs))
		for _, a := range attrs {
			def := schema.Protected[a]
			if def.Kind == dataset.Categorical {
				prot[def.Name] = o.ds.ProtectedLabel(a, i)
			} else {
				prot[def.Name] = o.ds.RawProtected(a, i)
			}
		}
		if err := w.Seed(drift.Event{Type: drift.EventJoin, Worker: o.ds.ID(i), Protected: prot, Score: f.Score(o.ds, i)}); err != nil {
			return nil, fmt.Errorf("seed row %d: %w", i, err)
		}
	}
	w.SealBaseline()
	// The server leaves the monitor package's own series unregistered, so
	// its delta-path work is counted on the replay's unbounded monitor,
	// from the first live event on.
	w.Total().SetMetrics(o.monReg)
	return &Monitor{o: o, watch: w}, nil
}

// Batch replays one POST /v1/monitors/{id}/events. body, when non-nil, is
// decoded as the handler decodes it; events are applied either way.
func (m *Monitor) Batch(events []drift.Event, body []byte) (batchResponse, error) {
	tr := m.o.tr
	tr.Begin(ClassBatch)
	var err error
	if body != nil {
		tr.Time("server.decode", -1, func() {
			var e error
			events, e = drift.DecodeEvents(body)
			check(&err, e)
		})
	}
	resp := batchResponse{Alarms: []drift.AlarmEvent{}}
	tr.Time("drift.apply", -1, func() {
		for i, ev := range events {
			alarms, e := m.watch.Apply(ev)
			if e != nil {
				check(&err, fmt.Errorf("event %d: %w", i, e))
				return
			}
			resp.Applied++
			for _, a := range alarms {
				m.seq++
				a.Seq = m.seq
				resp.Alarms = append(resp.Alarms, a)
			}
		}
	})
	if len(resp.Alarms) > 0 && tr != nil {
		tr.Time("store.put", -1, func() {
			raw, _ := json.Marshal(monitorRecord{Spec: m.watch.Spec(), Alarms: m.watch.AlarmStates()})
			check(&err, m.o.db.Put("monitors", m.watch.Spec().ID, raw))
		})
	}
	tr.Time("server.encode", -1, func() { _ = json.NewEncoder(discard{}).Encode(resp) })
	return resp, err
}

// MonitorWork returns the replayed monitors' events, distance updates
// and rebuilds.
func (o *Oracle) MonitorWork() (events, updates, rebuilds float64) {
	for k, v := range o.monReg.Snapshot().Counters {
		switch {
		case strings.HasPrefix(k, monitor.MetricEvents):
			events += float64(v)
		case k == monitor.MetricDistanceUpdates:
			updates = float64(v)
		case k == monitor.MetricRebuilds:
			rebuilds = float64(v)
		}
	}
	return
}

// Status is the replayed GET /v1/monitors/{id} response.
func (m *Monitor) Status() []byte {
	return encode(monitorStatus{Status: m.watch.Status(), Dataset: m.watch.Spec().Dataset})
}
