package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metadataflow/internal/service"
)

// This file is the serve-mem and serve-durable workloads: an mdfserve-style
// server behind its HTTP handler on a loopback listener, driven by two
// closed-loop clients. Each client is one tenant with one job outstanding:
// it submits, polls the job until it is terminal, and only then submits
// its next job, as an analyst waiting for a result before choosing the
// next exploration. Every tenth job a client also fetches /metrics, as a
// dashboard would.

const (
	// clients is the closed-loop client count, each its own tenant and
	// connection.
	clients = 2
	// A client polls its outstanding job after pollFirst, then at
	// intervals growing by a quarter up to pollMax: short jobs are seen
	// promptly and long ones are not flooded with status requests.
	pollFirst = time.Millisecond
	pollMax   = 8 * time.Millisecond
	// metricsEvery is the per-client job count between /metrics fetches.
	metricsEvery = 10
	// warmupJobs run before the timer starts, two per client.
	warmupJobs = 2 * clients
	// historyJobs is the size of serve-durable's boot history.
	historyJobs = 300
)

// serviceConfig is the deployment every serve run uses: mdfserve's
// defaults, a 4-worker cluster of 256 MiB per job.
func serviceConfig() service.Config {
	return service.Config{Workers: 4, MemPerWorker: 256 << 20}
}

// server is a service behind a loopback HTTP listener.
type server struct {
	svc  *service.Server
	http *http.Server
	base string
	done chan struct{}
}

func startServer(svc *service.Server) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // idle connections only; clients have finished
	<-s.done
	s.svc.Close()
}

// spans collects the client-side latencies of every HTTP call, in ms.
type spans struct {
	mu                      sync.Mutex
	submit, status, metrics []float64
	wait, run               []float64
}

func (sp *spans) add(dst *[]float64, d time.Duration) {
	sp.mu.Lock()
	*dst = append(*dst, ms(d))
	sp.mu.Unlock()
}

// client is one closed-loop tenant with its own connection.
type client struct {
	tenant string
	base   string
	hc     *http.Client
	sp     *spans
	jobs   int
}

func newClient(tenant, base string, sp *spans) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tenant: tenant, base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, sp: sp}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// outcome is one job as its client saw it.
type outcome struct {
	Status  service.JobStatus
	Latency time.Duration
	Err     error
}

func (c *client) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// runJob submits one job and polls it to a terminal state.
func (c *client) runJob(j job) outcome {
	body, err := json.Marshal(service.JobRequest{Tenant: c.tenant, Spec: j.Spec, Faults: j.Faults})
	if err != nil {
		return outcome{Err: err}
	}
	start := time.Now()
	var st service.JobStatus
	err = c.do(http.MethodPost, "/jobs", body, http.StatusCreated, &st)
	c.sp.add(&c.sp.submit, time.Since(start))
	if err != nil {
		return outcome{Err: err}
	}
	var running time.Time
	for wait := pollFirst; !terminal(st.State); wait = min(wait*5/4, pollMax) {
		time.Sleep(wait)
		t := time.Now()
		err := c.do(http.MethodGet, "/jobs/"+st.ID, nil, http.StatusOK, &st)
		c.sp.add(&c.sp.status, time.Since(t))
		if err != nil {
			return outcome{Status: st, Err: err}
		}
		if running.IsZero() && st.State != service.StateQueued {
			running = time.Now()
			c.sp.add(&c.sp.wait, running.Sub(start))
		}
	}
	end := time.Now()
	if running.IsZero() {
		running = end
		c.sp.add(&c.sp.wait, end.Sub(start))
	}
	c.sp.add(&c.sp.run, end.Sub(running))
	c.jobs++
	if c.jobs%metricsEvery == 0 {
		t := time.Now()
		err := c.do(http.MethodGet, "/metrics", nil, http.StatusOK, nil)
		c.sp.add(&c.sp.metrics, time.Since(t))
		if err != nil {
			return outcome{Status: st, Err: err}
		}
	}
	return outcome{Status: st, Latency: end.Sub(start)}
}

func terminal(state string) bool {
	switch state {
	case service.StateDone, service.StateFailed, service.StateCanceled, service.StateCheckpointed:
		return true
	}
	return false
}

// drive runs jobs through the clients in closed loop; each free client
// takes the next job of the stream. marks, when not nil, is told of every
// finished job.
func drive(cs []*client, jobs []job, marks *batchMarks) []outcome {
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i] = c.runJob(jobs[i])
				if marks != nil {
					marks.jobDone()
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// batchMarks splits a timed phase into batches of jobs: it records the
// wall clock and the process CPU time each time another batch of jobs has
// finished, so that a run reports per-batch medians, which a burst of
// interference from outside the process moves less than it moves a total.
type batchMarks struct {
	mu    sync.Mutex
	every int
	done  int
	wall  []time.Time
	cpu   []float64
}

func newBatchMarks(every int) *batchMarks {
	return &batchMarks{every: every, wall: []time.Time{time.Now()}, cpu: []float64{cpuSeconds()}}
}

func (b *batchMarks) jobDone() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done++
	if b.done%b.every == 0 {
		b.wall = append(b.wall, time.Now())
		b.cpu = append(b.cpu, cpuSeconds())
	}
}

// medians returns the median wall seconds and CPU seconds of a batch, and
// the number of batches.
func (b *batchMarks) medians() (wall, cpu float64, n int) {
	var ws, cs []float64
	for i := 1; i < len(b.wall); i++ {
		ws = append(ws, b.wall[i].Sub(b.wall[i-1]).Seconds())
		cs = append(cs, b.cpu[i]-b.cpu[i-1])
	}
	return median(ws), median(cs), len(ws)
}

// checkOutcome verifies one finished job against its independently
// computed answer. It returns an operation failure (the job did not finish)
// or a correctness error (it finished with a wrong or unaudited result).
func checkOutcome(j job, o outcome) (failure, wrong error) {
	if o.Err != nil {
		return fmt.Errorf("job %d (%s): %w", j.Index, j.Shape, o.Err), nil
	}
	if o.Status.State != service.StateDone {
		return fmt.Errorf("job %d (%s) ended %s: %s", j.Index, j.Shape, o.Status.State, o.Status.Error), nil
	}
	if len(o.Status.Audit) > 0 {
		return nil, fmt.Errorf("job %d (%s): audit not empty: %v", j.Index, j.Shape, o.Status.Audit)
	}
	if err := compareSelections(j.Expect, o.Status.Selections); err != nil {
		return nil, fmt.Errorf("job %d (%s, fault %q): %w", j.Index, j.Shape, j.Fault, err)
	}
	return nil, nil
}

// compareSelections matches the service's selections, keyed by choose
// stage ("T<id>[<explore>/choose..]"), against the expected ones keyed by
// explore name with one entry per instance. Instances of a nested explore
// are matched in stage order, which follows the enclosing branch order.
func compareSelections(want map[string][][]int, got map[string][]int) error {
	type inst struct {
		id  int
		sel []int
	}
	byName := map[string][]inst{}
	for key, sel := range got {
		id, name, err := parseStageKey(key)
		if err != nil {
			return err
		}
		byName[name] = append(byName[name], inst{id, sel})
	}
	if len(byName) != len(want) {
		return fmt.Errorf("selections for %d explores, want %d: got %v", len(byName), len(want), got)
	}
	for name, ws := range want {
		gs := byName[name]
		sort.Slice(gs, func(a, b int) bool { return gs[a].id < gs[b].id })
		if len(gs) != len(ws) {
			return fmt.Errorf("explore %q: %d choose instances, want %d", name, len(gs), len(ws))
		}
		for k := range ws {
			if !equalInts(gs[k].sel, ws[k]) {
				return fmt.Errorf("explore %q instance %d selected %v, want %v", name, k, gs[k].sel, ws[k])
			}
		}
	}
	return nil
}

func parseStageKey(key string) (int, string, error) {
	open := strings.IndexByte(key, '[')
	if !strings.HasPrefix(key, "T") || open < 0 || !strings.HasSuffix(key, "]") {
		return 0, "", fmt.Errorf("unrecognised choose stage key %q", key)
	}
	id, err := strconv.Atoi(key[1:open])
	if err != nil {
		return 0, "", fmt.Errorf("choose stage key %q: %w", key, err)
	}
	first, _, _ := strings.Cut(key[open+1:len(key)-1], "..")
	name, ok := strings.CutSuffix(first, "/choose")
	if !ok {
		return 0, "", fmt.Errorf("choose stage key %q does not start with a choose", key)
	}
	return id, name, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// historyEntry is one finished job of the durable boot history, as the
// service reported it before the restart.
type historyEntry struct {
	ID            string           `json:"id"`
	State         string           `json:"state"`
	CompletionSec float64          `json:"completionSec"`
	Selections    map[string][]int `json:"selections"`
}

// prepareHistory fills dir with the state of a durable server that ran
// historyJobs small jobs to completion, and returns what it reported for
// each. Journal syncs are off while preparing: the bytes on disk are the
// same, only the crash window differs.
func prepareHistory(dir string, st stream) ([]historyEntry, error) {
	cfg := serviceConfig()
	cfg.StateDir = dir
	cfg.JournalNoSync = true
	svc, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	ids := make([]string, historyJobs)
	jobs := make([]job, historyJobs)
	for i := range jobs {
		if jobs[i], err = st.historyJob(i); err != nil {
			return nil, err
		}
		s, err := svc.Submit(service.JobRequest{Tenant: fmt.Sprintf("history-%d", i%2), Spec: jobs[i].Spec})
		if err != nil {
			return nil, fmt.Errorf("history job %d: %w", i, err)
		}
		ids[i] = s.ID
		if i%2 == 1 {
			svc.WaitIdle()
		}
	}
	svc.WaitIdle()
	out := make([]historyEntry, historyJobs)
	for i, id := range ids {
		s, err := svc.Job(id)
		if err != nil {
			return nil, err
		}
		if failure, wrong := checkOutcome(jobs[i], outcome{Status: s}); failure != nil || wrong != nil {
			return nil, fmt.Errorf("history: %v%v", failure, wrong)
		}
		out[i] = historyEntry{ID: id, State: s.State, CompletionSec: s.CompletionSec, Selections: s.Selections}
	}
	return out, nil
}

// checkHistory verifies over HTTP that every history job reports after the
// restart what it reported before.
func checkHistory(c *client, hist []historyEntry) error {
	for _, h := range hist {
		var st service.JobStatus
		if err := c.do(http.MethodGet, "/jobs/"+h.ID, nil, http.StatusOK, &st); err != nil {
			return fmt.Errorf("history job %s: %w", h.ID, err)
		}
		if st.State != h.State || st.CompletionSec != h.CompletionSec || !sameSelections(st.Selections, h.Selections) {
			return fmt.Errorf("history job %s after restart: %s at %gs %v, before: %s at %gs %v",
				h.ID, st.State, st.CompletionSec, st.Selections, h.State, h.CompletionSec, h.Selections)
		}
	}
	return nil
}

func sameSelections(a, b map[string][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !equalInts(v, b[k]) {
			return false
		}
	}
	return true
}

// memoryTwin runs the jobs that finished on the durable server, in order
// and two at a time, on a fresh memory-only server and checks that each
// ends in the same state with the same selections. Virtual completion times may
// differ: durable servers enable checkpointing for every job.
func memoryTwin(jobs []job, durable []outcome) error {
	svc := service.New(serviceConfig())
	defer svc.Close()
	for i := 0; i < len(jobs); i += clients {
		var ids []string
		for k := i; k < min(i+clients, len(jobs)); k++ {
			if durable[k].Status.State != service.StateDone {
				ids = append(ids, "") // counted as failed already
				continue
			}
			st, err := svc.Submit(service.JobRequest{Tenant: fmt.Sprintf("twin-%d", k-i), Spec: jobs[k].Spec, Faults: jobs[k].Faults})
			if err != nil {
				return fmt.Errorf("memory twin of job %d: %w", k, err)
			}
			ids = append(ids, st.ID)
		}
		svc.WaitIdle()
		for n, id := range ids {
			k := i + n
			if id == "" {
				continue
			}
			st, err := svc.Job(id)
			if err != nil {
				return err
			}
			d := durable[k].Status
			if st.State != d.State || !sameSelections(st.Selections, d.Selections) {
				return fmt.Errorf("job %d: durable %s %v, memory-only %s %v", k, d.State, d.Selections, st.State, st.Selections)
			}
		}
	}
	return nil
}

// writeJSONFile and readJSONFile pass data between the parent and its
// child processes.
func writeJSONFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// stateCopy gives one child its own copy of the prepared history. The
// journal is copied, since appends extend its last segment in place;
// checkpoint entries are hard-linked, since the store only ever replaces
// an entry by renaming a new file over it.
func stateCopy(rundir string, k int) (string, error) {
	dst := filepath.Join(rundir, fmt.Sprintf("state-%d", k))
	ckpt := func(rel string) bool { return strings.HasPrefix(rel, "ckpt"+string(filepath.Separator)) }
	if err := copyDir(filepath.Join(rundir, "history"), dst, ckpt); err != nil {
		return "", err
	}
	return dst, nil
}
