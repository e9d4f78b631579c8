package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"metadataflow/internal/experiments"
)

// This file is the figures workload: regenerate every experiment of
// experiments.Registry() in full mode with one seed, in registry order, as
// `mdfbench -exp all -seeds 1` does. One operation is one experiment.

// figuresRoundSeconds is the nominal length of one full regeneration; a
// run performs max(1, seconds/figuresRoundSeconds) regenerations and
// reports medians over them.
const figuresRoundSeconds = 20

func runFigures(a childArgs) (*childResult, error) {
	reg := experiments.Registry()
	mark("ready")
	if a.setupOnly {
		return nil, nil
	}
	if err := a.startProfile(); err != nil {
		return nil, err
	}
	res := &childResult{Extra: map[string]float64{}}
	perExp := map[string][]float64{}
	var digests []string
	var walls, cpus []float64
	ph := startPhase()
	for r := 0; r < a.figRounds; r++ {
		var csv strings.Builder
		start, cpu := time.Now(), cpuSeconds()
		for _, e := range reg {
			res.Attempted++
			t := time.Now()
			tab, err := e.Run(experiments.Options{Seeds: 1})
			d := ms(time.Since(t))
			if err != nil {
				res.fail(fmt.Errorf("%s: %w", e.ID, err))
				continue
			}
			perExp[e.ID] = append(perExp[e.ID], d)
			if err := checkTable(tab); err != nil {
				res.wrong(fmt.Errorf("%s: %w", e.ID, err))
			}
			csv.WriteString(tab.CSV())
		}
		sum := sha256.Sum256([]byte(csv.String()))
		digests = append(digests, hex.EncodeToString(sum[:]))
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu)
	}
	ph.stop()
	res.Extra["sys_s"] = ph.sysS / float64(a.figRounds)
	layers := map[string]float64{}
	if err := a.stopProfile(layers); err != nil {
		return nil, err
	}
	retained := retainedMiB()
	peak := peakRSSMiB()
	if err := checkDigests(a.root, digests); err != nil {
		res.wrong(err)
	}
	// An experiment's latency is its median over the regenerations.
	var lat []float64
	for _, e := range reg {
		if ts := perExp[e.ID]; len(ts) > 0 {
			lat = append(lat, median(ts))
		}
	}
	res.EndToEnd = map[string]float64{
		"cpu_s":       median(cpus),
		"alloc_mb":    ph.allocMiB / float64(a.figRounds),
		"retained_mb": retained,
	}
	if a.trace {
		layers["wall_s"] = median(walls)
		layers["jobs_per_s"] = float64(len(lat)) / median(walls)
		layers["job_p50_ms"] = median(lat)
		layers["job_p90_ms"] = quantile(lat, 0.9)
		layers["peak_rss_mb"] = peak
		for _, e := range reg {
			layers["experiments."+e.ID+".ms"] = median(perExp[e.ID])
		}
		layers["gc.cycles"] = float64(ph.gcCycles) / float64(a.figRounds)
		layers["gc.pause_ms"] = ms(ph.gcPause) / float64(a.figRounds)
		res.PerLayer = layers
	}
	return res, nil
}

// checkDigests requires every regeneration in this run, and every earlier
// run in this checkout, to produce byte-identical tables. The first run in
// a checkout records the digest under .bench_build; delete that file to
// re-record it after a change that deliberately moves virtual-time output.
func checkDigests(root string, digests []string) error {
	for _, d := range digests[1:] {
		if d != digests[0] {
			return fmt.Errorf("tables differ between regenerations in one run: %s vs %s", digests[0], d)
		}
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "figures.sha256")
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(digests[0]+"\n"), 0o644)
	case err != nil:
		return err
	}
	if got := strings.TrimSpace(string(prev)); got != digests[0] {
		return fmt.Errorf("tables differ from an earlier run in this checkout: sha256 %s, earlier %s", digests[0], got)
	}
	return nil
}

// checkTable asserts the orderings the paper claims for each full-mode
// table: the properties the MDF method must have, not a copy of earlier
// output.
func checkTable(t *experiments.Table) error {
	if len(t.Rows) == 0 {
		return errors.New("empty table")
	}
	c := &tableCheck{t: t}
	first, last := t.Rows[0].X, t.Rows[len(t.Rows)-1].X
	switch t.ID {
	case "table1":
		want := [][2]float64{{1, 1}, {1, 1}, {1, 1}, {1, 0}, {0, 0}}
		if len(t.Rows) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(t.Rows), len(want))
		}
		for i, w := range want {
			if r := t.Rows[i]; r.Cells[0].Avg != w[0] || r.Cells[1].Avg != w[1] {
				c.errorf("row %q: (%g, %g), want (%g, %g)", r.X, r.Cells[0].Avg, r.Cells[1].Avg, w[0], w[1])
			}
		}
	case "fig5":
		ex := "WxRxM (exhaustive)"
		for _, col := range []string{"sequential", "4-parallel", "8-parallel"} {
			c.less(ex, "MDF", ex, col)
		}
		c.less("W->RxM (early choose)", "MDF", ex, "MDF")
		c.eachRow(func(x string) { c.less(x, "MDF", x, "sequential") })
	case "fig6":
		c.eachRow(func(x string) { c.less(x, "MDF", x, "sequential") })
		g0 := c.cell(first, "sequential") / c.cell(first, "MDF")
		g1 := c.cell(last, "sequential") / c.cell(last, "MDF")
		c.assert(g1 >= 0.9*g0, "MDF gain over sequential shrinks with input size: %.2fx -> %.2fx", g0, g1)
	case "fig7":
		c.eachRow(func(x string) { c.less(x, "MDF", x, "sequential") })
		c.assert(c.cell("64", "sequential") >= 2.5*c.cell("16", "sequential"), "sequential does not grow with branches")
	case "fig8":
		c.eachRow(func(x string) {
			c.assert(c.cell(x, "MDF (top-4)") < 0.9*c.cell(x, "MDF"), "%s: top-4 does not clearly beat full MDF", x)
			c.less(x, "MDF (first-4)", x, "MDF (top-4)")
			c.assert(c.cell(x, "MDF (first-4, sorted)") <= 1.05*c.cell(x, "MDF (first-4)"), "%s: sorted hints worse than definition order", x)
			c.less(x, "MDF (first-4, random)", x, "MDF (top-4)")
		})
	case "fig9":
		for _, col := range []string{"Spark (cache)", "Spark (YARN)", "Spark (sequential)"} {
			c.less(last, "SEEP (MDF)", last, col)
		}
		c.less(last, "Spark (YARN)", last, "Spark (sequential)")
	case "fig10":
		c.eachRow(func(x string) { c.atLeast(x, "AMM+incremental", x, "LRU") })
	case "fig13":
		for _, col := range t.Columns {
			d := c.cell(first, col) - c.cell(last, col)
			c.assert(d <= 0.15 && d >= -0.15, "%s hit ratio unstable across workers", col)
		}
	case "fig11":
		for _, col := range t.Columns {
			c.less(first, col, last, col)
		}
	case "fig14":
		for _, col := range t.Columns {
			c.assert(c.cell(last, col) <= c.cell(first, col)+0.01, "%s hit ratio grows with data size", col)
		}
		c.atLeast(last, "AMM+incremental", last, "LRU")
	case "fig12":
		c.eachRow(func(x string) { c.atLeast(x, "LRU", x, "AMM+incremental") })
	case "fig15":
		c.eachRow(func(x string) { c.atLeast(x, "AMM+incremental", x, "LRU") })
	case "fig16":
		c.eachRow(func(x string) {
			c.assert(c.cell(x, "AMM+incremental") <= 1.02, "%s: AMM+incremental slower than LRU", x)
		})
		c.assert(c.cell(last, "AMM+incremental") >= c.cell(first, "AMM+incremental")-0.02, "AMM+incremental advantage grows with compute cost")
	case "fig17":
		best := 2.0
		c.eachRow(func(x string) {
			v := c.cell(x, "AMM+incremental")
			c.assert(v <= 1.02, "%s: AMM+incremental slower than LRU", x)
			best = min(best, v)
		})
		c.assert(best <= 0.95, "AMM+incremental never clearly beats LRU")
		c.assert(c.cell(last, "AMM+incremental") >= best, "relative time does not converge with memory")
	case "fig18":
		for _, col := range t.Columns {
			c.assert(c.cell(last, col) >= c.cell(first, col)-0.01, "%s hit ratio falls with memory", col)
		}
		c.eachRow(func(x string) { c.atLeast(x, "AMM+incremental", x, "LRU") })
	case "ablation":
		c.eachRow(func(x string) {
			c.atLeast(x, "BFS+LRU", x, "BAS+LRU")
			c.atLeast(x, "BAS+LRU", x, "BAS+AMM+incremental")
			c.less(x, "BAS+AMM+incremental", x, "BFS+LRU")
		})
	case "stragglers":
		rel, spec := c.cell("4x", "relative"), c.cell("4x", "relative (spec.)")
		c.assert(rel > 1 && rel <= 4.2, "4x straggler slows the job by %.2fx", rel)
		c.assert(spec < rel && spec <= 2, "speculation bounds the 4x straggler to %.2fx", spec)
	case "recovery":
		c.eachRow(func(x string) {
			c.atLeast(x, "with failure", x, "clean run")
			c.less(x, "overhead", x, "clean run")
		})
	case "reliability":
		c.eachRow(func(x string) {
			for _, s := range []string{"BFS", "BAS"} {
				c.less(x, "AMM+"+s, x, "LRU+"+s)
				c.assert(c.cell(x, "AMM+"+s) >= 0, "%s: negative overhead", x)
			}
		})
	}
	return c.err
}

type tableCheck struct {
	t   *experiments.Table
	err error
}

func (c *tableCheck) errorf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *tableCheck) assert(ok bool, format string, args ...any) {
	if !ok {
		c.errorf(format, args...)
	}
}

func (c *tableCheck) cell(x, col string) float64 {
	s, ok := c.t.Cell(x, col)
	if !ok {
		c.errorf("missing cell (%s, %s)", x, col)
	}
	return s.Avg
}

func (c *tableCheck) eachRow(fn func(x string)) {
	for _, r := range c.t.Rows {
		fn(r.X)
	}
}

// less requires cell a to be strictly below cell b.
func (c *tableCheck) less(xa, ca, xb, cb string) {
	a, b := c.cell(xa, ca), c.cell(xb, cb)
	c.assert(a < b, "(%s, %s) = %.4f is not below (%s, %s) = %.4f", xa, ca, a, xb, cb, b)
}

// atLeast requires cell a to be no smaller than cell b.
func (c *tableCheck) atLeast(xa, ca, xb, cb string) {
	a, b := c.cell(xa, ca), c.cell(xb, cb)
	c.assert(a >= b, "(%s, %s) = %.4f is below (%s, %s) = %.4f", xa, ca, a, xb, cb, b)
}
