package main

import (
	"bytes"
	"fmt"
	"testing"
)

// requestBytes renders the first n requests of every client's stream.
func requestBytes(t *testing.T, seed uint64, workload string, n int) []byte {
	t.Helper()
	w, err := NewWorld(seed, 500)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for c := 0; c < Clients; c++ {
		s, err := NewStream(w, workload, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			r := s.Next()
			fmt.Fprintf(&b, "%d %s %s\n%s\n", c, r.Method, r.Path, r.Body)
		}
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range []string{"audit", "pages", "monitor"} {
		n := map[string]int{"audit": 40, "pages": 60, "monitor": 30}[wl]
		a, b := requestBytes(t, 7, wl, n), requestBytes(t, 7, wl, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request sequences", wl)
		}
		if bytes.Equal(a, requestBytes(t, 8, wl, n)) {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", wl)
		}
	}
}

func TestWorkloadMix(t *testing.T) {
	w, err := NewWorld(3, 500)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewStream(w, "audit", 0)
	algs := map[Class]map[string]int{ClassAudit: {}, ClassJob: {}}
	repeats, seen := 0, map[string]bool{}
	for i := 0; i < 400; i++ {
		r := s.Next()
		algs[r.Class][r.Algorithm]++
		if r.Class == ClassAudit {
			if seen[r.Key] {
				t.Fatalf("sync audit %d repeats an earlier spec", i)
			}
			seen[r.Key] = true
		}
		if r.Repeat {
			repeats++
		}
	}
	if a := algs[ClassAudit]; a["balanced"] != 150 || a["unbalanced"] != 50 {
		t.Errorf("sync algorithm mix %v, want 150:50", a)
	}
	if repeats != 49 {
		t.Errorf("%d repeated job specs in 200 jobs, want 49", repeats)
	}

	s, _ = NewStream(w, "pages", 1)
	count := map[Class]int{}
	filtered := 0
	for i := 0; i < 600; i++ {
		r := s.Next()
		count[r.Class]++
		if r.Filtered {
			filtered++
		}
	}
	if count[ClassPage] != 300 || count[ClassRerank] != 300 || filtered != 100 {
		t.Errorf("page mix %v with %d filtered, want 300/300 and 100", count, filtered)
	}

	s, _ = NewStream(w, "monitor", 0)
	types := map[string]int{}
	for i := 0; i < shiftCycle; i++ {
		r := s.Next()
		if len(r.Events) != batchSize || r.Shifted != Shifted(i) {
			t.Fatalf("batch %d: %d events, shifted %v", i, len(r.Events), r.Shifted)
		}
		for k, v := range eventCounts(r.Events) {
			types[k] += v
		}
	}
	total := float64(shiftCycle * batchSize)
	for typ, want := range map[string]float64{"join": 0.25, "leave": 0.25, "rescore": 0.5} {
		if got := float64(types[typ]) / total; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", typ, got, want)
		}
	}
}
