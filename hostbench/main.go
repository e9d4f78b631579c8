// Command hostbench is the repository's host-time benchmark: what the Go
// code costs to regenerate the paper's figures and to serve MDF jobs.
// Every gate elsewhere in the repository measures virtual seconds; this
// one measures the host.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash hostbench/run.sh --workload serve-mem --seed 1 --seconds 20 --trace 0
//
// Each run measures one workload in fresh child processes of this binary,
// checks the program's outputs against the benchmark's own computation,
// and prints as its last line one JSON object with the fields correct,
// attempted, failed and metrics: the end-to-end metrics, or with --trace 1
// the per-layer metrics of a separate traced run. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"metadataflow/internal/experiments"
)

// Units of every reported metric.
var endToEndUnits = map[string]string{
	"setup_s": "s", "cpu_s": "s", "alloc_mb": "MiB", "retained_mb": "MiB",
}

var workloads = []string{"figures", "serve-mem", "serve-durable"}

const (
	// setupSamples is how many times a run sets its workload up; setup_s
	// is the median.
	setupSamples = 5
	// Job counts per measured second: each serve run is a fixed number of
	// jobs, a whole number of stratified rounds, so its wall time varies
	// with the host and never with the clock.
	memJobsPerSecond     = 40
	durableJobsPerSecond = 6
	// minServeJobs keeps at least ten latency samples beyond job_p90_ms.
	minServeJobs = 100
	// runDeadline bounds one run, children included.
	runDeadline = 170 * time.Second
)

func main() {
	var a childArgs
	var child string
	flag.StringVar(&a.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&a.seed, "seed", 1, "workload seed")
	flag.IntVar(&a.seconds, "seconds", 20, "nominal run length; sets the amount of work")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&a.root, "root", ".", "checkout root; scratch state goes under <root>/.bench_build")
	flag.StringVar(&child, "child", "", "internal: run as a measured child (run or setup)")
	flag.StringVar(&a.rundir, "rundir", "", "internal: the run's scratch directory")
	flag.StringVar(&a.state, "state", "", "internal: serve-durable state directory")
	flag.Parse()
	a.trace = *trace == 1
	if !slices.Contains(workloads, a.workload) || a.seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: hostbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	switch a.workload {
	case "figures":
		a.figRounds = max(1, a.seconds/figuresRoundSeconds)
	case "serve-mem":
		a.jobs = roundUp(a.seconds*memJobsPerSecond, roundLen)
	case "serve-durable":
		a.jobs = max(minServeJobs, roundUp(a.seconds*durableJobsPerSecond, roundLen))
	}
	var err error
	if child != "" {
		a.setupOnly = child == "setup"
		err = childMain(a)
	} else {
		err = parentMain(a)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parentMain(a childArgs) error {
	root, err := filepath.Abs(a.root)
	if err != nil {
		return err
	}
	a.root = root
	a.rundir = filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d", a.workload, os.Getpid()))
	if err := os.MkdirAll(a.rundir, 0o755); err != nil {
		return err
	}
	defer removeAll(a.rundir)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if a.workload == "serve-durable" {
		t := time.Now()
		hist, err := prepareHistory(filepath.Join(a.rundir, "history"), stream{seed: a.seed})
		if err != nil {
			return fmt.Errorf("preparing the durable history: %w", err)
		}
		files, bytes := dirUsage(filepath.Join(a.rundir, "history"))
		fmt.Fprintf(os.Stderr, "hostbench: durable history of %d jobs prepared in %.1fs: %d files, %.1f MiB\n",
			len(hist), time.Since(t).Seconds(), files, float64(bytes)/(1<<20))
		if err := writeJSONFile(filepath.Join(a.rundir, "history.json"), hist); err != nil {
			return err
		}
	}
	total0, steal0 := hostTicks()

	var setups []float64
	if !a.trace {
		for k := 1; k < setupSamples; k++ {
			s, _, err := spawn(ctx, a, "setup", k)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	s, res, err := spawn(ctx, a, "run", 0)
	if err != nil {
		return err
	}
	setups = append(setups, s)
	total1, steal1 := hostTicks()

	host := map[string]any{
		"workload": a.workload, "seed": a.seed, "attempted": res.Attempted, "failed": res.Failed,
		"steal_ticks": steal1 - steal0, "load": loadAvg(),
		"steal_pct":       100 * float64(steal1-steal0) / math.Max(1, float64(total1-total0)),
		"setup_samples_s": setups, "extra": res.Extra,
	}
	if len(res.Errors) > 0 || len(res.Wrong) > 0 {
		host["errors"], host["wrong"] = res.Errors, res.Wrong
		for _, e := range append(res.Errors, res.Wrong...) {
			fmt.Fprintln(os.Stderr, "hostbench:", e)
		}
	}
	b, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(b))

	out := report{Correct: len(res.Wrong) == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	if a.trace {
		for _, k := range perLayerNames() {
			out.Metrics[k] = metric{res.PerLayer[k], layerUnit(k)}
		}
	} else {
		res.EndToEnd["setup_s"] = median(setups)
		for k, v := range res.EndToEnd {
			out.Metrics[k] = metric{v, endToEndUnits[k]}
		}
	}
	b, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// perLayerNames lists every per-layer metric. A traced run reports all of
// them, with 0 for a layer its workload never reaches.
func perLayerNames() []string {
	out := []string{"wall_s", "jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"}
	for _, e := range experiments.Registry() {
		out = append(out, "experiments."+e.ID+".ms")
	}
	out = append(out,
		"http.submit_ms", "http.status_ms", "http.metrics_ms",
		"service.wait_ms", "service.run_ms", "service.open_ms", "journal.replay_ms",
		"spec.parse_us", "plan.verify_us", "spec.hash_us", "spec.compile_us",
		"graph.plan_us", "engine.newrun_us",
		"engine.step_us", "engine.steps", "scheduler.pick_us", "scheduler.picks",
		"operator.compute_us", "engine.self_us",
		"memorymgr.evictions", "memorymgr.checkpoints", "memorymgr.spilled_mb",
		"ckptstore.step_overhead_us", "ckptstore.files", "ckptstore.mb",
		"journal.append_us", "journal.records", "journal.kb",
		"obs.snapshot_us", "disk_mb")
	for _, p := range cpuPackages {
		out = append(out, "cpu."+p+".pct")
	}
	return append(out, "gc.cycles", "gc.pause_ms")
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, ".pct"):
		return "%"
	case strings.HasSuffix(name, "_mb"), strings.HasSuffix(name, ".mb"):
		return "MiB"
	case strings.HasSuffix(name, ".kb"):
		return "KiB"
	}
	return "count"
}

// spawn runs one child and returns its set-up time and, for a measured
// run, its result. Set-up runs from the child's "mark start" line, or from
// process start when it prints none, to its "mark ready" line.
func spawn(ctx context.Context, a childArgs, mode string, k int) (float64, *childResult, error) {
	state := ""
	if a.workload == "serve-durable" {
		var err error
		if state, err = stateCopy(a.rundir, k); err != nil {
			return 0, nil, err
		}
		defer removeAll(state)
	}
	args := []string{"-child", mode, "-workload", a.workload, "-seed", fmt.Sprint(a.seed),
		"-seconds", fmt.Sprint(a.seconds), "-root", a.root, "-rundir", a.rundir, "-state", state}
	if a.trace {
		args = append(args, "-trace", "1")
	}
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var ready time.Time
	var res *childResult
	var parseErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "mark start":
			started = time.Now()
		case line == "mark ready":
			ready = time.Now()
		case strings.HasPrefix(line, "result "):
			res = &childResult{}
			parseErr = json.Unmarshal([]byte(strings.TrimPrefix(line, "result ")), res)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	if parseErr != nil {
		return 0, nil, parseErr
	}
	if ready.IsZero() || (mode == "run" && res == nil) {
		return 0, nil, fmt.Errorf("%s child exited without reporting", mode)
	}
	return ready.Sub(started).Seconds(), res, nil
}
