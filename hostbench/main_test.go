package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSONNames keeps BENCHMARK.json in step with what the
// benchmark prints: the same end-to-end and per-layer names and units.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, printed %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	if len(e2e) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(e2e), len(endToEndUnits))
	}
	names := perLayerNames()
	if len(doc.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(names))
	}
	for i, m := range doc.PerLayer {
		if m.Name != names[i] || m.Unit != layerUnit(m.Name) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), printed %s (%s)", i, m.Name, m.Unit, names[i], layerUnit(names[i]))
		}
	}
}

// TestCPUShares decodes a real CPU profile of this process.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += i % 7
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(cpuPackages) {
		t.Errorf("%d shares, want %d", len(shares), len(cpuPackages))
	}
	for k, v := range shares {
		if v < 0 || v > 100 {
			t.Errorf("%s = %g%%", k, v)
		}
	}
	_ = x
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"metadataflow/internal/engine.(*Run).Step":           "engine",
		"metadataflow/internal/workload/dnn.train":           "workload.dnn",
		"metadataflow/internal/stats.Mean[go.shape.float64]": "stats",
		"encoding/json.(*decodeState).object":                "encoding.json",
		"runtime.mallocgc":                                   "runtime.malloc",
		"runtime.gcDrain":                                    "runtime.gc",
		"runtime.memmove":                                    "runtime.other",
		"internal/runtime/syscall.Syscall6":                  "syscall",
		"fmt.(*pp).doPrintf":                                 "fmt",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestServeSmoke runs both serve workloads end to end on a few jobs, the
// memory-only one traced, and requires every job to be correct.
func TestServeSmoke(t *testing.T) {
	root := t.TempDir()
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"serve-mem", true}, {"serve-durable", false}} {
		a := childArgs{workload: tc.workload, seed: 7, jobs: roundLen, trace: tc.trace, root: root, rundir: t.TempDir()}
		if tc.workload == "serve-durable" {
			if testing.Short() {
				continue
			}
			hist, err := prepareHistory(filepath.Join(a.rundir, "history"), stream{seed: a.seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := writeJSONFile(filepath.Join(a.rundir, "history.json"), hist); err != nil {
				t.Fatal(err)
			}
			if a.state, err = stateCopy(a.rundir, 0); err != nil {
				t.Fatal(err)
			}
		}
		res, err := runServe(a)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		checkSmoke(t, tc.workload, res)
		if tc.trace {
			var missing []string
			for _, k := range perLayerNames() {
				if _, ok := res.PerLayer[k]; !ok {
					missing = append(missing, k)
				}
			}
			sort.Strings(missing)
			t.Logf("%s: per-layer metrics this workload does not reach: %v", tc.workload, missing)
			if res.PerLayer["engine.steps"] <= 0 || res.PerLayer["http.submit_ms"] <= 0 {
				t.Errorf("%s: traced run reported no engine or HTTP layer: %v", tc.workload, res.PerLayer)
			}
		}
	}
}

// TestFiguresSmoke regenerates every experiment once; it takes about as
// long as `mdfbench -exp all -seeds 1`, so -short skips it.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode regeneration")
	}
	res, err := runFigures(childArgs{workload: "figures", root: t.TempDir(), figRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, "figures", res)
}

func checkSmoke(t *testing.T, workload string, res *childResult) {
	t.Helper()
	if res.Failed != 0 || len(res.Wrong) != 0 {
		t.Fatalf("%s: %d of %d failed: %v; wrong: %v", workload, res.Failed, res.Attempted, res.Errors, res.Wrong)
	}
	for k := range endToEndUnits {
		if k == "setup_s" {
			continue // measured by the parent across processes
		}
		if v, ok := res.EndToEnd[k]; !ok || v <= 0 {
			t.Errorf("%s: end-to-end %s = %v", workload, k, v)
		}
	}
}
