package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/drift"
	"fairrank/internal/jobs"
)

// Clients is the number of closed-loop clients: one per core of the
// 2-vCPU host the benchmark was sized on, and never more than that.
const Clients = 2

// Setup creates the workload's server-side objects: the dataset upload,
// the five tasks, both monitors and their baselines. It returns how long
// the upload request took.
func Setup(c *http.Client, base string, w *World) (time.Duration, error) {
	t0 := time.Now()
	if _, err := do(c, "POST", base+"/v1/datasets/"+datasetName, "application/x-fairrank-snapshot", w.Snapshot); err != nil {
		return 0, fmt.Errorf("upload: %w", err)
	}
	upload := time.Since(t0)
	for _, t := range w.Tasks {
		body, _ := json.Marshal(t)
		if _, err := do(c, "POST", base+"/v1/tasks", "application/json", body); err != nil {
			return 0, fmt.Errorf("task %s: %w", t.ID, err)
		}
	}
	for _, m := range w.Monitors {
		body, _ := json.Marshal(m)
		if _, err := do(c, "POST", base+"/v1/monitors", "application/json", body); err != nil {
			return 0, fmt.Errorf("monitor %s: %w", m.ID, err)
		}
		if _, err := do(c, "POST", base+"/v1/monitors/"+m.ID+"/baseline", "application/json", nil); err != nil {
			return 0, fmt.Errorf("baseline %s: %w", m.ID, err)
		}
	}
	return upload, nil
}

// Sample is one completed request as the client saw it.
type Sample struct {
	Req    Request
	Client int
	Dur    time.Duration
	Status int
	Body   []byte
	Err    error
	// Job is the job record fetched after its terminal event.
	Job *jobs.Job
	// Alarms are a batch response's alarm transitions, and EventTypes
	// its events by type (the events themselves are dropped once sent;
	// the replay regenerates them from the seed).
	Alarms     []drift.AlarmEvent
	EventTypes map[string]int
}

// Failed reports a non-2xx status or a transport error.
func (s *Sample) Failed() bool { return s.Err != nil || s.Status/100 != 2 }

// Load is everything the clients produced in the timed window.
type Load struct {
	Samples []*Sample
	Elapsed time.Duration
}

// LoadPlan is how long the clients run and when the server's memory is read.
type LoadPlan struct {
	Duration time.Duration
	// MinPerClient keeps each client going past the deadline until it has
	// completed this many requests, so every class has its tail samples.
	MinPerClient int
	// MaxPerClient stops each client after this many requests (0 = no
	// cap; for tests).
	MaxPerClient int
	// AtMark runs once, on the client that completes the
	// Clients×MinPerClient-th request; the other client may be mid-request.
	AtMark func()
}

// RunLoad drives the workload with Clients closed-loop clients until the
// deadline has passed and each client has completed plan.MinPerClient
// requests.
func RunLoad(ctx context.Context, c *http.Client, base string, w *World, workload string, plan LoadPlan) (*Load, error) {
	streams := make([]Stream, Clients)
	for i := range streams {
		s, err := NewStream(w, workload, i)
		if err != nil {
			return nil, err
		}
		streams[i] = s
	}
	per := make([][]*Sample, Clients)
	var completed atomic.Int64
	mark := int64(Clients * plan.MinPerClient)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(plan.Duration)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; (n < plan.MinPerClient || time.Now().Before(deadline)) && (plan.MaxPerClient <= 0 || n < plan.MaxPerClient); n++ {
				if ctx.Err() != nil {
					return
				}
				s := issue(ctx, c, base, streams[i].Next())
				s.Client = i
				per[i] = append(per[i], s)
				if completed.Add(1) == mark && plan.AtMark != nil {
					plan.AtMark()
				}
				if s.Err != nil {
					return // the server is unreachable; stop this client
				}
			}
		}(i)
	}
	wg.Wait()
	l := &Load{Elapsed: time.Since(start)}
	for _, ss := range per {
		l.Samples = append(l.Samples, ss...)
	}
	return l, nil
}

// issue sends one request and times it as its class defines.
func issue(ctx context.Context, c *http.Client, base string, req Request) *Sample {
	s := &Sample{Req: req}
	t0 := time.Now()
	s.Status, s.Body, s.Err = send(ctx, c, req.Method, base+req.Path, req.Body)
	if s.Err == nil && s.Status/100 == 2 {
		switch req.Class {
		case ClassJob:
			s.Err = followJob(ctx, c, base, s, t0)
			return s
		case ClassBatch:
			var resp struct {
				Applied int                `json:"applied"`
				Alarms  []drift.AlarmEvent `json:"alarms"`
			}
			if err := json.Unmarshal(s.Body, &resp); err != nil {
				s.Err = fmt.Errorf("decode batch response: %w", err)
			} else if resp.Applied != len(req.Events) {
				s.Err = fmt.Errorf("batch applied %d of %d events", resp.Applied, len(req.Events))
			}
			s.Alarms, s.Body = resp.Alarms, nil
		}
	}
	if req.Class == ClassBatch {
		s.EventTypes = eventCounts(req.Events)
		s.Req.Events, s.Req.Body = nil, nil
	}
	s.Dur = time.Since(t0)
	return s
}

// followJob reads the job's SSE stream until its terminal state event,
// which ends the job's latency, then fetches the finished record.
func followJob(ctx context.Context, c *http.Client, base string, s *Sample, t0 time.Time) error {
	var sub jobs.Job
	if err := json.Unmarshal(s.Body, &sub); err != nil {
		return fmt.Errorf("decode job submission: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	state, err := terminalState(resp.Body)
	resp.Body.Close()
	s.Dur = time.Since(t0)
	if err != nil {
		return fmt.Errorf("job %s events: %w", sub.ID, err)
	}
	if state != jobs.StateDone {
		return fmt.Errorf("job %s ended %s", sub.ID, state)
	}
	status, body, err := send(ctx, c, "GET", base+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET job %s: %d", sub.ID, status)
	}
	var rec jobs.Job
	if err := json.Unmarshal(body, &rec); err != nil {
		return fmt.Errorf("decode job %s: %w", sub.ID, err)
	}
	s.Job = &rec
	return nil
}

// terminalState scans server-sent events for the first terminal state.
func terminalState(r io.Reader) (jobs.State, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Type == jobs.EventState && ev.State.Terminal() {
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("stream ended before a terminal state")
}

func send(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// do sends a setup request and requires a 2xx answer.
func do(c *http.Client, method, url, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, out)
	}
	return out, nil
}

// NewClient returns the HTTP client the benchmark uses, with enough idle
// connections that each client keeps its own.
func NewClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, DisableCompression: true},
	}
}
