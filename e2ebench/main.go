// Command e2ebench is fairrank's end-to-end benchmark. It runs the
// fairserve binary as a child process with a fresh database, drives one
// workload over loopback HTTP with closed-loop clients, checks every
// response against an in-process replay of the same request, and prints
// the metrics as one JSON object on the last line of standard output.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	e2ebench -server BIN -workload audit|pages|monitor -seed N -seconds S -trace 0|1
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// the per-layer metrics of the traced replay. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"fairrank/internal/simulate"
)

// setupReps is how many fresh servers a run sets up; setup_s is their median.
const setupReps = 25

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "audit", "workload: audit, pages or monitor")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
		bin      = flag.String("server", "", "path to the fairserve binary")
		workdir  = flag.String("dir", ".bench_build", "directory for databases and scratch files")
	)
	flag.Parse()
	if _, ok := workloadClasses[*workload]; !ok || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -server, a positive -seconds, -trace 0|1 and -workload audit|pages|monitor")
		return 2
	}
	// A run must end well inside three minutes whatever happens.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(*workdir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer removeAll(dir)

	type done struct {
		out *Outcome
		err error
	}
	ch := make(chan done, 1)
	go func() {
		out, err := Bench(ctx, Config{
			Workload: *workload, Seed: *seed, Trace: *trace == 1, Workers: simulate.LargePopulation,
			Duration:  time.Duration(*seconds * float64(time.Second)),
			SetupReps: setupReps, MinPerClient: minPerClient[*workload], Dir: dir, Launch: ChildLauncher(*bin),
		})
		ch <- done{out, err}
	}()
	var d done
	select {
	case d = <-ch:
	case <-ctx.Done():
		// Bench stops its server on the way out; wait for that.
		fmt.Fprintln(os.Stderr, "e2ebench: stopping:", ctx.Err())
		if d = <-ch; d.out != nil {
			d.out.Close()
		}
		return 1
	}
	if d.err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", d.err)
		return 1
	}
	out := d.out
	defer out.Close()
	m, err := out.EndToEnd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	out.WriteReport(os.Stdout, m)
	res := Result{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: m}
	if *trace == 1 {
		out.WriteLayerSplit(os.Stdout)
		res.Metrics = out.PerLayer()
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
