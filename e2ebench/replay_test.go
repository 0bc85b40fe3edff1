package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fairrank/internal/server"
	"fairrank/internal/store"
	"fairrank/internal/telemetry"
)

// inProcess serves fairrank from this test process, configured as
// fairserve configures itself by default.
type inProcess struct {
	ts  *httptest.Server
	srv *server.Server
	db  *store.DB
	dir string
}

func launchInProcess(dir string) (Target, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	db, err := store.Open(filepath.Join(dir, "fairrank.db"), store.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(db, server.WithAuditLimit(4), server.WithMetrics(reg),
		server.WithJobWorkers(2), server.WithJobQueueLimit(64))
	if err != nil {
		db.Close()
		return nil, err
	}
	return &inProcess{ts: httptest.NewServer(srv.Handler()), srv: srv, db: db, dir: dir}, nil
}

func (p *inProcess) Base() string                { return p.ts.URL }
func (p *inProcess) PeakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }
func (p *inProcess) Stop() {
	p.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
	p.db.Close()
	os.RemoveAll(p.dir)
}

// benchSmall runs a workload on the paper's 500-worker population.
func benchSmall(t *testing.T, workload string, perClient int, trace bool) *Outcome {
	t.Helper()
	out, err := Bench(context.Background(), Config{
		Workload: workload, Seed: 42, Duration: time.Minute, Trace: trace, Workers: 500,
		SetupReps: 1, MaxPerClient: perClient, Dir: t.TempDir(), Launch: launchInProcess,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayMatchesHTTP checks that the in-process replay and the HTTP
// responses agree on every request of every workload.
func TestReplayMatchesHTTP(t *testing.T) {
	for wl, n := range map[string]int{"audit": 12, "pages": 30, "monitor": 8} {
		t.Run(wl, func(t *testing.T) {
			out := benchSmall(t, wl, n, true)
			if out.Attempted != Clients*n || out.Failed != 0 {
				t.Fatalf("%d of %d requests failed: %v", out.Failed, out.Attempted, out.Problems)
			}
			defer out.Close()
			layers := out.PerLayer()
			checkNames(t, layers, loadSpec(t).PerLayer)
			busy := map[string]string{"audit": "core.run_ms.balanced", "pages": "marketplace.ndcg_ms", "monitor": "drift.apply_ns"}[wl]
			if layers[busy].Value <= 0 {
				t.Errorf("%s = %v on %s, want > 0", busy, layers[busy].Value, wl)
			}
		})
	}
}

// TestMinimumOutlastsDeadline checks that a client keeps going past the
// deadline until it has its minimum of requests, and that the server's
// memory is read at that mark.
func TestMinimumOutlastsDeadline(t *testing.T) {
	const n = 5
	out, err := Bench(context.Background(), Config{
		Workload: "pages", Seed: 42, Duration: 0, Workers: 500,
		SetupReps: 1, MinPerClient: n, Dir: t.TempDir(), Launch: launchInProcess,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if out.Attempted != Clients*n || out.Failed != 0 {
		t.Errorf("%d requests, %d failed; want %d, 0", out.Attempted, out.Failed, Clients*n)
	}
	if out.RSSAt != Clients*n || out.RSSMB <= 0 {
		t.Errorf("peak RSS %v MB read after %d requests, want > 0 after %d", out.RSSMB, out.RSSAt, Clients*n)
	}
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkNames requires got to hold exactly the declared metrics and units.
func checkNames(t *testing.T, got map[string]Metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s: reported %+v (present %v), declared unit %s", m.Name, g, ok, m.Unit)
		}
	}
}

func TestEndToEndMetricNames(t *testing.T) {
	out := benchSmall(t, "pages", 120, false)
	defer out.Close()
	m, err := out.EndToEnd()
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, m, loadSpec(t).EndToEnd)
}

// TestMismatchIsCounted corrupts one response of each kind after the
// fact and expects the correctness gate to count exactly that one.
func TestMismatchIsCounted(t *testing.T) {
	out := benchSmall(t, "pages", 4, false)
	defer out.Close()
	s := out.Load.Samples[0]
	s.Body = []byte(`[{"rank":1,"worker":"nobody","score":1}]`)
	out.Failed, out.Problems = 0, nil
	if err := out.verifyPages(); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 {
		t.Errorf("a corrupted page counted %d failures, want 1", out.Failed)
	}

	out = benchSmall(t, "audit", 4, false)
	defer out.Close()
	for _, s := range out.Load.Samples {
		if s.Req.Class == ClassJob {
			s.Job.Result = []byte(`{"algorithm":"balanced","unfairness":0.5,"partitions":[]}`)
			break
		}
	}
	out.Failed, out.Problems = 0, nil
	out.Oracle.audits = map[string]*auditOut{}
	if err := out.verifyAudits(); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 {
		t.Errorf("a corrupted job result counted %d failures, want 1", out.Failed)
	}
}
