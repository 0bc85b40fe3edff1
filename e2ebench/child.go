package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is a fairserve child process with its own fresh database.
type Server struct {
	cmd  *exec.Cmd
	URL  string
	dir  string
	done chan struct{}
	log  bytes.Buffer
}

// StartServer launches bin with its default flags except the listen
// address and the database, which lives in a fresh directory under dir.
func StartServer(bin, dir string) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &Server{URL: "http://" + addr, dir: dir, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-db", filepath.Join(dir, "fairrank.db"))
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited during start: %s", s.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, errors.New("server did not become healthy within 30s")
		}
	}
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Stop shuts the server down gracefully, kills it if it lingers, waits
// for it to exit and removes its database directory.
func (s *Server) Stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	_ = os.RemoveAll(s.dir)
}

// Base returns the server's base URL.
func (s *Server) Base() string { return s.URL }

// PeakRSSMB reads the server's resident-set high-water mark.
func (s *Server) PeakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// peakRSSMB reads a process's VmHWM from /proc.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// Counters is one scrape of /metrics (series → value) and of the Go
// memstats under /debug/vars.
type Counters struct {
	Series   map[string]float64
	MemStats struct {
		TotalAlloc   uint64
		NumGC        uint32
		PauseTotalNs uint64
	}
}

// Scrape reads /metrics and /debug/vars.
func Scrape(c *http.Client, base string) (*Counters, error) {
	out := &Counters{Series: map[string]float64{}}
	body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out.Series[line[:i]] = v
	}
	body, err = get(c, base+"/debug/vars")
	if err != nil {
		return nil, err
	}
	var vars struct {
		MemStats json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	if err := json.Unmarshal(vars.MemStats, &out.MemStats); err != nil {
		return nil, fmt.Errorf("decode memstats: %w", err)
	}
	return out, nil
}

// Sum adds every series of the metric name (all label sets).
func (c *Counters) Sum(name string) float64 {
	total := 0.0
	for k, v := range c.Series {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// Delta is after.Sum(name) − before.Sum(name).
func Delta(before, after *Counters, name string) float64 {
	return after.Sum(name) - before.Sum(name)
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}
