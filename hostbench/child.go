package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"metadataflow/internal/journal"
	"metadataflow/internal/service"
)

// This file is the measured side: each run of a workload happens in a fresh
// child process of the benchmark binary. The child prints "mark start" and
// "mark ready" lines that the parent timestamps to measure set-up, then,
// unless it only measures set-up, one "result" line of JSON.

// childResult is what a child reports to the parent.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Wrong     []string           `json:"wrong,omitempty"`
	EndToEnd  map[string]float64 `json:"endToEnd"`
	PerLayer  map[string]float64 `json:"perLayer,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

func (r *childResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *childResult) wrong(err error) {
	if len(r.Wrong) < 10 {
		r.Wrong = append(r.Wrong, err.Error())
	}
}

type childArgs struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	setupOnly  bool
	root       string
	rundir     string
	state      string
	jobs       int
	figRounds  int
	cpuProfile *bytes.Buffer
}

// batches is how many equal batches a serve run's jobs are split into for
// the wall-clock and CPU medians.
const batches = 10

func mark(what string) { fmt.Printf("mark %s\n", what) }

func childMain(a childArgs) error {
	var res *childResult
	var err error
	switch a.workload {
	case "figures":
		res, err = runFigures(a)
	default:
		res, err = runServe(a)
	}
	if err != nil || res == nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("result %s\n", b)
	return nil
}

// startProfile starts a CPU profile of the timed phase on traced runs.
func (a *childArgs) startProfile() error {
	if !a.trace {
		return nil
	}
	a.cpuProfile = new(bytes.Buffer)
	return pprof.StartCPUProfile(a.cpuProfile)
}

// stopProfile stops the profile and adds cpu.<pkg>.pct to the layers.
func (a *childArgs) stopProfile(layers map[string]float64) error {
	if a.cpuProfile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(a.cpuProfile.Bytes())
	if err != nil {
		return err
	}
	for k, v := range shares {
		layers[k] = v
	}
	return nil
}

func runServe(a childArgs) (*childResult, error) {
	durable := a.workload == "serve-durable"
	st := stream{seed: a.seed}
	warm := make([]job, warmupJobs)
	for i := range warm {
		var err error
		if warm[i], err = st.warmupJob(i); err != nil {
			return nil, err
		}
	}
	var jobs []job
	if !a.setupOnly {
		jobs = make([]job, a.jobs)
		for i := range jobs {
			var err error
			if jobs[i], err = st.job(i); err != nil {
				return nil, err
			}
		}
	}
	layers := map[string]float64{}
	if durable && a.trace {
		t := time.Now()
		if _, err := journal.Replay(filepath.Join(a.state, "journal")); err != nil {
			return nil, err
		}
		layers["journal.replay_ms"] = ms(time.Since(t))
	}

	mark("start")
	t := time.Now()
	var svc *service.Server
	if durable {
		cfg := serviceConfig()
		cfg.StateDir = a.state
		var err error
		if svc, err = service.Open(cfg); err != nil {
			return nil, err
		}
	} else {
		svc = service.New(serviceConfig())
	}
	layers["service.open_ms"] = ms(time.Since(t))
	srv, err := startServer(svc)
	if err != nil {
		svc.Close()
		return nil, err
	}
	defer srv.close()
	warmSpans := &spans{}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(fmt.Sprintf("analyst-%d", i+1), srv.base, warmSpans)
	}
	defer func() {
		for _, c := range cs {
			c.closeIdle()
		}
	}()
	for i, o := range drive(cs, warm, nil) {
		if failure, wrong := checkOutcome(warm[i], o); failure != nil || wrong != nil {
			return nil, fmt.Errorf("warm-up: %v%v", failure, wrong)
		}
	}
	mark("ready")
	if a.setupOnly {
		return nil, nil
	}

	sp := &spans{}
	for _, c := range cs {
		c.sp, c.jobs = sp, 0
	}
	if err := a.startProfile(); err != nil {
		return nil, err
	}
	ph := startPhase()
	marks := newBatchMarks(max(1, len(jobs)/batches))
	outs := drive(cs, jobs, marks)
	ph.stop()
	if err := a.stopProfile(layers); err != nil {
		return nil, err
	}
	res := &childResult{Attempted: len(jobs), Extra: map[string]float64{"sys_s": ph.sysS}}
	retained := retainedMiB()
	peak := peakRSSMiB()
	var lat []float64
	for i, o := range outs {
		failure, wrong := checkOutcome(jobs[i], o)
		switch {
		case failure != nil:
			res.fail(failure)
		case wrong != nil:
			res.wrong(wrong)
		}
		if failure == nil {
			lat = append(lat, ms(o.Latency))
		}
	}
	batchWall, batchCPU, n := marks.medians()
	res.EndToEnd = map[string]float64{
		"cpu_s":       batchCPU * float64(n),
		"alloc_mb":    ph.allocMiB,
		"retained_mb": retained,
	}
	if durable {
		files, bytes := dirUsage(a.state)
		res.Extra["disk_mb"] = float64(bytes) / (1 << 20)
		res.Extra["disk_files"] = float64(files)
		var hist []historyEntry
		if err := readJSONFile(filepath.Join(a.rundir, "history.json"), &hist); err != nil {
			return nil, err
		}
		if err := checkHistory(cs[0], hist); err != nil {
			res.wrong(err)
		}
		if err := memoryTwin(jobs, outs); err != nil {
			res.wrong(err)
		}
	}
	if a.trace {
		layers["wall_s"] = batchWall * float64(n)
		layers["jobs_per_s"] = float64(marks.every) / batchWall
		layers["job_p50_ms"] = median(lat)
		layers["job_p90_ms"] = quantile(lat, 0.9)
		layers["peak_rss_mb"] = peak
		layers["http.submit_ms"] = median(sp.submit)
		layers["http.status_ms"] = median(sp.status)
		layers["http.metrics_ms"] = median(sp.metrics)
		layers["service.wait_ms"] = median(sp.wait)
		layers["service.run_ms"] = median(sp.run)
		layers["gc.cycles"] = float64(ph.gcCycles)
		layers["gc.pause_ms"] = ms(ph.gcPause)
		if durable {
			layers["disk_mb"] = res.Extra["disk_mb"]
		}
		if err := replayAll(a, jobs, outs, layers, res); err != nil {
			return nil, err
		}
		res.PerLayer = layers
	}
	return res, nil
}

func removeAll(dir string) {
	if dir != "" {
		_ = os.RemoveAll(dir) // scratch state; a leftover is removed with the run directory
	}
}
