package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strconv"

	"fairrank/internal/dataset"
	"fairrank/internal/drift"
	"fairrank/internal/rerank"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/simulate/driftsim"
)

// Fixed names of the benchmark's server-side objects.
const (
	datasetName = "workers"
	pageK       = 10
	batchSize   = 1000
	// monitorWindow and monitorHalfLife size both monitors' estimators.
	monitorWindow   = 2000
	monitorHalfLife = 1000
	// shiftCycle is the drift period in batches: in each cycle the first
	// third is unshifted, the second third shifts one gender's scores
	// down by scoreShift, and the last third is unshifted again, so the
	// drift alarms fire and then clear.
	shiftCycle = 24
	scoreShift = 0.3
	// shiftedGender is the gender whose scores drift.
	shiftedGender = "Female"
	// monitorAlpha is the monitors' scoring weight (the paper's f1).
	monitorAlpha = 0.5
)

// pageFilter is the fixed query a third of GET pages carry.
const pageFilter = "YearsExperience >= 5 AND Country = 'India'"

// Class names one request class; every sample belongs to exactly one.
type Class string

const (
	ClassAudit  Class = "audit"  // sync POST /v1/audits
	ClassJob    Class = "job"    // POST /v1/jobs followed over SSE
	ClassPage   Class = "page"   // GET /v1/rank
	ClassRerank Class = "rerank" // POST /v1/rank with a re-ranker
	ClassBatch  Class = "batch"  // POST /v1/monitors/{id}/events
)

// Request is one generated HTTP request plus what the replay needs to
// reproduce it in-process.
type Request struct {
	Class  Class
	Method string
	Path   string
	Body   []byte
	// Key identifies requests that must produce identical responses
	// (audit and job bodies, page requests).
	Key string
	// Algorithm is the audit algorithm or the re-ranker name.
	Algorithm string
	// Repeat marks a job whose spec repeats an earlier job of its client.
	Repeat bool
	// Filtered marks a GET page carrying the q= filter.
	Filtered bool
	// Monitor and Events describe a batch request.
	Monitor string
	Events  []drift.Event
	// Shifted marks a batch inside the drift phase of its cycle.
	Shifted bool
}

// Stream yields one client's requests; the same seed always yields the
// same sequence.
type Stream interface {
	Next() Request
}

// World is the generated population and the fixed objects the setup
// creates on the server.
type World struct {
	Seed     uint64
	Dataset  *dataset.Dataset
	Snapshot []byte
	Tasks    []TaskSpec
	Monitors []drift.Spec
}

// TaskSpec is the POST /v1/tasks body.
type TaskSpec struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Dataset string             `json:"dataset"`
	Weights map[string]float64 `json:"weights"`
}

// paperWeights is the paper's linear scoring form α·LanguageTest +
// (1−α)·ApprovalRate.
func paperWeights(alpha float64) map[string]float64 {
	return map[string]float64{"LanguageTest": alpha, "ApprovalRate": 1 - alpha}
}

// populationSeed fixes the generated population across runs, as the paper
// fixes its worker tables: the run seed draws every request, while the
// dataset, whose shape alone moves audit cost by up to a tenth between
// seeds, stays the same.
const populationSeed = 42

// NewWorld generates the population of n workers and the setup objects.
func NewWorld(seed uint64, n int) (*World, error) {
	ds, err := simulate.PaperWorkers(n, populationSeed)
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	if err := ds.WriteSnapshot(&snap); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	w := &World{Seed: seed, Dataset: ds, Snapshot: snap.Bytes()}
	for _, name := range simulate.RandomFunctionNames {
		w.Tasks = append(w.Tasks, TaskSpec{
			ID: name, Title: "task " + name, Dataset: datasetName,
			Weights: paperWeights(simulate.RandomAlphas[name]),
		})
	}
	for i, attrs := range monitorAttributes {
		// driftsim's stock rules, scaled so their window is monitorWindow.
		spec := driftsim.DefaultMonitorSpec(monitorIDs[i], "Gender", monitorWindow/4)
		spec.Dataset = datasetName
		spec.Attributes = attrs
		spec.Weights = paperWeights(monitorAlpha)
		spec.HalfLife = monitorHalfLife
		w.Monitors = append(w.Monitors, spec)
	}
	return w, nil
}

// One monitor per client, so the two clients never share a monitor lock.
var (
	monitorIDs        = []string{"mon-gender", "mon-gender-country"}
	monitorAttributes = [][]string{{"Gender"}, {"Gender", "Country"}}
)

// streamRNG derives an independent generator for one client of one
// workload from the run seed.
func streamRNG(seed uint64, workload string, client int) *rng.RNG {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", workload, client)
	return rng.New(seed ^ h.Sum64())
}

// NewStream returns client's request stream for a workload.
func NewStream(w *World, workload string, client int) (Stream, error) {
	r := streamRNG(w.Seed, workload, client)
	switch workload {
	case "audit":
		return &auditStream{r: r}, nil
	case "pages":
		return &pageStream{r: r, tasks: w.Tasks, rerankers: rerank.Rerankers()}, nil
	case "monitor":
		return newMonitorStream(w, r, client)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// auditAlgorithms is the sync audits' algorithm cycle: the 3:1 mix keeps
// each p50 inside the balanced mode and each tail inside the unbalanced one.
var auditAlgorithms = []string{"balanced", "balanced", "balanced", "unbalanced"}

// auditBody is the shared body of POST /v1/audits and POST /v1/jobs.
type auditBody struct {
	Dataset   string             `json:"dataset"`
	Algorithm string             `json:"algorithm"`
	Weights   map[string]float64 `json:"weights"`
}

// auditStream alternates a sync audit with a fresh α and a job. A job
// takes the spec of the sync audit just before it, except every fourth
// job, which repeats a random earlier job of the same client.
type auditStream struct {
	r      *rng.RNG
	n      int
	bodies []string // earlier job bodies
	last   Request
}

func (s *auditStream) Next() Request {
	k := s.n / 2
	s.n++
	if s.n%2 == 1 {
		alg := auditAlgorithms[k%len(auditAlgorithms)]
		body, _ := json.Marshal(auditBody{Dataset: datasetName, Algorithm: alg, Weights: paperWeights(s.r.Float64())})
		s.last = Request{Class: ClassAudit, Method: "POST", Path: "/v1/audits", Body: body, Key: string(body), Algorithm: alg}
		return s.last
	}
	req := s.last
	req.Class, req.Path = ClassJob, "/v1/jobs"
	if k > 0 && k%4 == 0 {
		body := s.bodies[s.r.Intn(len(s.bodies))]
		var b auditBody
		_ = json.Unmarshal([]byte(body), &b)
		req.Body, req.Key, req.Algorithm, req.Repeat = []byte(body), body, b.Algorithm, true
	}
	s.bodies = append(s.bodies, req.Key)
	return req
}

// rankBody is the POST /v1/rank body.
type rankBody struct {
	Task      string        `json:"task"`
	K         int           `json:"k"`
	Algorithm string        `json:"algorithm"`
	Attribute string        `json:"attribute"`
	Params    rerank.Params `json:"params"`
	Audit     bool          `json:"audit"`
}

// rerankAttributes alternate across POST pages.
var rerankAttributes = []string{"Gender", "Country"}

// pageStream alternates GET /v1/rank (one in three filtered) with POST
// /v1/rank round-robin over the registered re-rankers.
type pageStream struct {
	r         *rng.RNG
	tasks     []TaskSpec
	rerankers []string
	gets      int
	posts     int
	n         int
}

func (s *pageStream) Next() Request {
	task := s.tasks[s.r.Intn(len(s.tasks))].ID
	s.n++
	if s.n%2 == 1 {
		q := url.Values{"task": {task}, "k": {strconv.Itoa(pageK)}}
		filtered := s.gets%3 == 0
		if filtered {
			q.Set("q", pageFilter)
		}
		s.gets++
		path := "/v1/rank?" + q.Encode()
		return Request{Class: ClassPage, Method: "GET", Path: path, Key: path, Filtered: filtered}
	}
	alg := s.rerankers[s.posts%len(s.rerankers)]
	attr := rerankAttributes[(s.posts/len(s.rerankers))%len(rerankAttributes)]
	s.posts++
	body, _ := json.Marshal(rankBody{Task: task, K: pageK, Algorithm: alg, Attribute: attr})
	return Request{Class: ClassRerank, Method: "POST", Path: "/v1/rank", Body: body, Key: string(body), Algorithm: alg}
}

// eventsBody is the POST /v1/monitors/{id}/events body.
type eventsBody struct {
	Events []drift.Event `json:"events"`
}

// liveWorker is a monitored worker the stream may leave or rescore.
type liveWorker struct {
	id     string
	female bool
}

// monitorStream feeds one monitor 1000-event batches of join, leave and
// rescore events in the ratio 1:1:2, so the live population stays near
// its seeded size. Joins clone a random dataset row's protected values
// and score; rescores draw a fresh score from a random row of the same
// gender. Inside the drift phase of each cycle the shifted gender's new
// scores drop by scoreShift.
type monitorStream struct {
	r      *rng.RNG
	spec   drift.Spec
	client int
	ds     *dataset.Dataset
	f      scoring.Func
	// protected[i] is row i's values of the monitor's attributes. Joins
	// share these maps: the events' encoding is unchanged, and a replayed
	// watch that keeps the maps of departed workers holds one per row
	// instead of one per join.
	protected []map[string]any
	female    []bool
	byGender  [2][]int // rows by female
	live      []liveWorker
	pos       map[string]int
	joined    int
	batch     int
	// noBody skips encoding request bodies, for replays that apply the
	// events directly.
	noBody bool
}

func newMonitorStream(w *World, r *rng.RNG, client int) (*monitorStream, error) {
	spec := w.Monitors[client%len(w.Monitors)]
	f, err := scoring.NewLinear(spec.ID, spec.Weights)
	if err != nil {
		return nil, err
	}
	ds := w.Dataset
	schema := ds.Schema()
	g := schema.ProtectedIndex("Gender")
	s := &monitorStream{r: r, spec: spec, client: client, ds: ds, f: f, pos: map[string]int{}}
	s.protected = make([]map[string]any, ds.N())
	for i := range s.protected {
		s.protected[i] = make(map[string]any, len(spec.Attributes))
		for _, name := range spec.Attributes {
			s.protected[i][name] = ds.ProtectedLabel(schema.ProtectedIndex(name), i)
		}
	}
	s.female = make([]bool, ds.N())
	for i := 0; i < ds.N(); i++ {
		s.female[i] = ds.ProtectedLabel(g, i) == shiftedGender
		fi := 0
		if s.female[i] {
			fi = 1
		}
		s.byGender[fi] = append(s.byGender[fi], i)
		s.add(liveWorker{id: ds.ID(i), female: s.female[i]})
	}
	return s, nil
}

func (s *monitorStream) add(w liveWorker) {
	s.pos[w.id] = len(s.live)
	s.live = append(s.live, w)
}

func (s *monitorStream) remove(i int) liveWorker {
	w := s.live[i]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last.id] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, w.id)
	return w
}

func (s *monitorStream) score(row int, shifted bool) float64 {
	v := s.f.Score(s.ds, row)
	if shifted && s.female[row] {
		v -= scoreShift
		if v < 0 {
			v = 0
		}
	}
	return v
}

// Shifted reports whether batch index b lies in its cycle's drift phase.
func Shifted(b int) bool {
	ph := b % shiftCycle
	return ph >= shiftCycle/3 && ph < 2*shiftCycle/3
}

func (s *monitorStream) Next() Request {
	shifted := Shifted(s.batch)
	events := make([]drift.Event, 0, batchSize)
	for len(events) < batchSize {
		switch kind := s.r.Intn(4); {
		case kind == 0 || len(s.live) < 2: // join
			row := s.r.Intn(s.ds.N())
			s.joined++
			w := liveWorker{id: "c" + strconv.Itoa(s.client) + "-" + strconv.Itoa(s.joined), female: s.female[row]}
			s.add(w)
			events = append(events, drift.Event{Type: drift.EventJoin, Worker: w.id, Protected: s.protected[row], Score: s.score(row, shifted)})
		case kind == 1: // leave
			w := s.remove(s.r.Intn(len(s.live)))
			events = append(events, drift.Event{Type: drift.EventLeave, Worker: w.id})
		default: // rescore
			w := s.live[s.r.Intn(len(s.live))]
			rows := s.byGender[0]
			if w.female {
				rows = s.byGender[1]
			}
			row := rows[s.r.Intn(len(rows))]
			events = append(events, drift.Event{Type: drift.EventRescore, Worker: w.id, Score: s.score(row, shifted)})
		}
	}
	var body []byte
	if !s.noBody {
		body, _ = json.Marshal(eventsBody{Events: events})
	}
	s.batch++
	return Request{
		Class: ClassBatch, Method: "POST", Path: "/v1/monitors/" + s.spec.ID + "/events",
		Body: body, Monitor: s.spec.ID, Events: events, Shifted: shifted,
	}
}

// eventCounts tallies a batch's events by type.
func eventCounts(events []drift.Event) map[string]int {
	out := map[string]int{}
	for _, e := range events {
		out[e.Type]++
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
