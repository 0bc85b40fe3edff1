package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Target is a running server under test.
type Target interface {
	Base() string
	PeakRSSMB() (float64, error)
	Stop()
}

// Launcher starts a fresh server whose state lives under dir.
type Launcher func(dir string) (Target, error)

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Trace    bool
	Workers  int
	// SetupReps is how many times the server is started and set up; the
	// median is setup_s and the last one serves the workload.
	SetupReps int
	// MinPerClient and MaxPerClient bound each client's requests; see
	// LoadPlan.
	MinPerClient int
	MaxPerClient int
	Dir          string
	Launch       Launcher
}

// traceCaps bounds how many requests per client the traced replay times
// for the workloads whose verification replays only distinct requests
// (pages) or skips body decoding (monitor batches).
var traceCaps = map[string]int{"pages": 100, "monitor": 150}

// minPerClient is each workload's minimum of requests per client. It
// gives every class at least 60 samples, so the tail percentile always has
// ten beyond it however slow the host, and it is the fixed amount of work
// after which the server's peak RSS is read, so that figure does not grow
// with throughput.
var minPerClient = map[string]int{"audit": 60, "pages": 200, "monitor": 800}

// Outcome is everything one run measured and checked.
type Outcome struct {
	Cfg      Config
	SetupS   []float64
	UploadMS []float64
	Load     *Load
	RSSMB    float64
	// RSSAt is how many requests had completed when RSSMB was read.
	RSSAt     int
	Before    *Counters
	After     *Counters
	Oracle    *Oracle
	Tracer    *Tracer
	Failed    int
	Attempted int
	Problems  []string
}

// Bench runs one workload end to end: set-up, timed closed-loop load,
// counter scrapes around it, then the in-process replay that checks every
// response (and, when tracing, times every layer call). The caller closes
// the returned Outcome.
func Bench(ctx context.Context, cfg Config) (*Outcome, error) {
	world, err := NewWorld(cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Cfg: cfg}
	c := NewClient()
	defer c.CloseIdleConnections()
	var tgt Target
	defer func() {
		if tgt != nil {
			tgt.Stop()
		}
	}()
	for i := 0; i < cfg.SetupReps; i++ {
		if tgt != nil {
			tgt.Stop()
			tgt = nil
		}
		t0 := time.Now()
		tgt, err = cfg.Launch(filepath.Join(cfg.Dir, "server-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		upload, err := Setup(c, tgt.Base(), world)
		if err != nil {
			return nil, err
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		out.UploadMS = append(out.UploadMS, ms(upload))
	}
	base := tgt.Base()
	if out.Before, err = Scrape(c, base); err != nil {
		return nil, err
	}
	var rssErr error
	rssRead := false
	readRSS := func() {
		out.RSSMB, rssErr = tgt.PeakRSSMB()
		rssRead = true
	}
	plan := LoadPlan{Duration: cfg.Duration, MinPerClient: cfg.MinPerClient, MaxPerClient: cfg.MaxPerClient, AtMark: readRSS}
	if out.Load, err = RunLoad(ctx, c, base, world, cfg.Workload, plan); err != nil {
		return nil, err
	}
	out.RSSAt = Clients * cfg.MinPerClient
	if !rssRead {
		// The mark was never reached (a capped test run, or a client
		// stopped on an error): read the memory at the end instead.
		readRSS()
		out.RSSAt = len(out.Load.Samples)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if out.After, err = Scrape(c, base); err != nil {
		return nil, err
	}
	var statuses [][]byte
	if cfg.Workload == "monitor" {
		for _, m := range world.Monitors {
			body, err := get(c, base+"/v1/monitors/"+m.ID)
			if err != nil {
				return nil, err
			}
			statuses = append(statuses, body)
		}
	}
	tgt.Stop()
	tgt = nil

	if cfg.Trace {
		out.Tracer = NewTracer()
	}
	if out.Oracle, err = NewOracle(world, cfg.Dir, out.Tracer); err != nil {
		return nil, err
	}
	for _, s := range out.Load.Samples {
		out.Attempted++
		if s.Failed() {
			out.fail("%s %s: status %d: %v: %.200s", s.Req.Method, s.Req.Path, s.Status, s.Err, s.Body)
		}
	}
	switch cfg.Workload {
	case "audit":
		err = out.verifyAudits()
	case "pages":
		err = out.verifyPages()
	case "monitor":
		err = out.verifyMonitors(world, statuses)
	}
	if err != nil {
		out.Close()
		return nil, err
	}
	return out, nil
}

// Close releases the replay's dataset mapping and store.
func (o *Outcome) Close() { o.Oracle.Close() }

// fail counts one failed or mismatched request.
func (o *Outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// canon decodes body into a fresh T and re-encodes it, so responses
// compare field by field whatever their byte layout.
func canon[T any](body []byte) ([]byte, error) {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return encode(v), nil
}

func (o *Outcome) verifyAudits() error {
	orc := o.Oracle
	id := 0
	for _, s := range o.Load.Samples {
		if s.Failed() {
			continue
		}
		switch s.Req.Class {
		case ClassAudit:
			id++
			want, err := orc.Audit(s.Req.Body, id)
			if err != nil {
				return fmt.Errorf("replay audit: %w", err)
			}
			got, err := canon[auditOut](s.Body)
			if err != nil || string(got) != string(encode(want)) {
				o.fail("audit %s: response differs from core.Run", s.Req.Body)
			}
		case ClassJob:
			if err := orc.JobSubmit(s.Req.Body); err != nil {
				return fmt.Errorf("replay job submission: %w", err)
			}
			want, ok := orc.Expected(s.Req.Body)
			if !ok {
				return fmt.Errorf("job %s has no earlier sync audit of its spec", s.Req.Body)
			}
			got, err := canon[auditOut](s.Job.Result)
			if err != nil || string(got) != string(encode(want)) {
				o.fail("job %s: result differs from the sync audit of its spec", s.Job.ID)
			}
		}
	}
	// Every 200 (coalesced) submission must show in the jobs layer's dedup
	// or result-cache counters.
	coalesced := 0
	for _, s := range o.Load.Samples {
		if s.Req.Class == ClassJob && s.Status == http.StatusOK {
			coalesced++
		}
	}
	counted := Delta(o.Before, o.After, "fairrank_jobs_deduped_total") + Delta(o.Before, o.After, "fairrank_jobs_result_cache_hits_total")
	if float64(coalesced) != counted {
		o.fail("jobs: %d coalesced submissions but dedup+cache counters moved by %g", coalesced, counted)
	}
	return nil
}

func (o *Outcome) verifyPages() error {
	orc := o.Oracle
	traced := make([]int, Clients)
	for _, s := range o.Load.Samples {
		if s.Failed() {
			continue
		}
		want, ok := orc.ExpectedPage(s.Req.Key)
		if timed := o.Tracer != nil && traced[s.Client] < traceCaps["pages"]; timed || !ok {
			orc.tr = nil
			if timed {
				orc.tr = o.Tracer
				traced[s.Client]++
			}
			var err error
			if s.Req.Class == ClassPage {
				want, err = orc.Page(s.Req.Path)
			} else {
				want, err = orc.Rerank(s.Req.Body)
			}
			if err != nil {
				return fmt.Errorf("replay %s %s: %w", s.Req.Path, s.Req.Body, err)
			}
		}
		var got []byte
		var err error
		if s.Req.Class == ClassPage {
			got, err = canon[[]rankedEntry](s.Body)
		} else {
			got, err = canon[rankPostResponse](s.Body)
		}
		if err != nil || string(got) != string(want) {
			o.fail("%s %s %s: page differs from the in-process ranking", s.Req.Method, s.Req.Path, s.Req.Body)
		}
	}
	return nil
}

func (o *Outcome) verifyMonitors(w *World, statuses [][]byte) error {
	byClient := make([][]*Sample, Clients)
	for _, s := range o.Load.Samples {
		byClient[s.Client] = append(byClient[s.Client], s)
	}
	replays := make([]*monitorReplay, Clients)
	for client := range replays {
		r, err := o.newMonitorReplay(w, client, byClient[client])
		if err != nil {
			return err
		}
		replays[client] = r
	}
	// The traced prefix runs first, one monitor after the other, because
	// the tracer is single-threaded; the untraced rest of each monitor's
	// stream then replays in parallel, one goroutine per monitor.
	if o.Tracer != nil {
		o.Oracle.tr = o.Tracer
		for _, r := range replays {
			if err := r.run(traceCaps["monitor"], true); err != nil {
				return err
			}
		}
	}
	o.Oracle.tr = nil
	errs := make([]error, len(replays))
	var wg sync.WaitGroup
	for i, r := range replays {
		wg.Add(1)
		go func(i int, r *monitorReplay) {
			defer wg.Done()
			errs[i] = r.run(len(r.samples), false)
		}(i, r)
	}
	wg.Wait()
	for i, r := range replays {
		if errs[i] != nil {
			return errs[i]
		}
		for _, p := range r.problems {
			o.fail("%s", p)
		}
		got, err := canon[monitorStatus](statuses[i])
		if want := r.m.Status(); err != nil || string(got) != string(want) {
			o.fail("%s: final status differs from drift.Watch:\n got %s\nwant %s", r.m.watch.Spec().ID, got, want)
		}
	}
	return nil
}

// monitorReplay feeds one monitor's regenerated batches to its replay.
type monitorReplay struct {
	m        *Monitor
	stream   *monitorStream
	samples  []*Sample
	next     int
	problems []string
}

func (o *Outcome) newMonitorReplay(w *World, client int, samples []*Sample) (*monitorReplay, error) {
	spec := w.Monitors[client%len(w.Monitors)]
	o.Oracle.tr = nil
	m, err := o.Oracle.NewMonitor(spec)
	if err != nil {
		return nil, fmt.Errorf("replay monitor %s: %w", spec.ID, err)
	}
	st, err := newMonitorStream(w, streamRNG(w.Seed, "monitor", client), client)
	if err != nil {
		return nil, err
	}
	return &monitorReplay{m: m, stream: st, samples: samples}, nil
}

// run replays batches up to index end (exclusive); decode makes each
// batch go through the handler's body decoding.
func (r *monitorReplay) run(end int, decode bool) error {
	r.stream.noBody = !decode
	for ; r.next < min(end, len(r.samples)); r.next++ {
		req := r.stream.Next()
		resp, err := r.m.Batch(req.Events, req.Body)
		if err != nil {
			return fmt.Errorf("replay %s batch %d: %w", req.Monitor, r.next, err)
		}
		s := r.samples[r.next]
		if !s.Failed() && string(encode(resp.Alarms)) != string(encode(s.Alarms)) {
			r.problems = append(r.problems, fmt.Sprintf("%s batch %d: alarm transitions differ from drift.Watch", req.Monitor, r.next))
		}
	}
	return nil
}

// ChildLauncher starts the fairserve binary at bin.
func ChildLauncher(bin string) Launcher {
	return func(dir string) (Target, error) { return StartServer(bin, dir) }
}

// removeAll is os.RemoveAll with the error reported on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
}
