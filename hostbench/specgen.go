package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metadataflow/internal/spec"
)

// This file generates the serve workloads' job stream. Job i of a stream
// is a pure function of (seed, i), so serve-durable runs a prefix of the
// very stream serve-mem runs with the same seed.
//
// The stream is stratified in rounds of ten jobs so that a run's cost does
// not depend on the seed: each round uses the ten shapes below once, each
// of the five row classes twice, each branch count from 3 to 12 once, and
// carries exactly one crash-faulted and one panic-faulted job. Which shape
// gets which make-up rotates from round to round. The seed orders the jobs
// within a round and draws every value: source data, row jitter, nested
// branch counts, operator parameters and selector bounds.

// roundLen is the number of jobs in one stratified round.
const roundLen = 10

// rowClasses span about an order of magnitude of input rows.
var rowClasses = []int{3000, 6000, 12000, 20000, 32000}

// shapes are the spec templates, one per slot of a round.
var shapes = []string{
	"filter-kthreshold", "filter-threshold", "affine-topk", "normalize-stddev",
	"nested-max", "nested-interval", "iterate-max", "filter-mode",
	"filter-kinterval", "iterate-topk",
}

// job is one generated submission with its independently computed answer.
type job struct {
	Index  int
	Shape  string
	Fault  string // "", "crash" or "panic"
	Spec   json.RawMessage
	Faults json.RawMessage
	// Expect maps an explore name to its selections in instance order.
	Expect map[string][][]int
	// Branches counts every explore's branches, nested ones per instance.
	Branches []int
}

// stream generates the jobs of one seed.
type stream struct{ seed int64 }

// mix derives a sub-seed so that neighbouring indexes get unrelated draws.
func mix(seed int64, parts ...int64) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// job returns job i of the stream.
func (s stream) job(i int) (job, error) {
	round, slot := i/roundLen, i%roundLen
	rr := rand.New(rand.NewSource(mix(s.seed, 1, int64(round))))
	k := rr.Perm(roundLen)[slot] // the seed only orders a round's ten jobs
	// A round's make-up depends on the round alone: shape k gets make-up
	// c, which rotates from round to round. Multipliers coprime to ten
	// spread the classes so that rows, branches and sizes vary
	// independently.
	c := (k + round) % roundLen
	d := draw{
		shape:    shapes[k],
		rows:     rowClasses[c%len(rowClasses)],
		parts:    8,
		branches: 3 + c*7%roundLen,
		vclass:   c * 3 % roundLen % 3,
	}
	switch k {
	case round % roundLen:
		d.fault = "crash"
	case (round + roundLen/2) % roundLen:
		d.fault = "panic"
	}
	return generate(mix(s.seed, 2, int64(i)), i, d)
}

// historyJob returns a small fault-free job for the durable history: a few
// hundred rows in two partitions.
func (s stream) historyJob(i int) (job, error) {
	small := []string{"filter-kthreshold", "filter-threshold", "affine-topk", "filter-mode"}
	return generate(mix(s.seed, 3, int64(i)), i, draw{shape: small[i%len(small)], rows: 300 + i%4*100, parts: 2, branches: 3 + i%3})
}

// warmupJob returns a fault-free job for the warm-up before timing.
func (s stream) warmupJob(i int) (job, error) {
	return generate(mix(s.seed, 4, int64(i)), i, draw{shape: shapes[i%len(shapes)], rows: rowClasses[0], parts: 8, branches: 3 + i%10})
}

// draw is a job's stratified make-up; generate draws everything else.
type draw struct {
	shape    string
	rows     int
	parts    int
	branches int    // branches of a non-nested explore
	vclass   int    // accounted size: 32, 64 or 128 MiB per partition
	fault    string // "", "crash" or "panic"
}

// generate draws one job of the given shape, redrawing parameters until
// every comparison the answer depends on is unambiguous.
func generate(seed int64, index int, d draw) (job, error) {
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 64; attempt++ {
		g := &gen{rng: rng}
		jitter := 0.9 + 0.2*rng.Float64()
		sp := g.spec(d, int(float64(d.rows)*jitter))
		ex := expect(sp)
		if ex.Ambiguous != "" {
			continue
		}
		if !g.deriveSelector(sp, ex.TopScores) {
			continue
		}
		ex = expect(sp)
		if ex.Ambiguous != "" || !selectsSomething(ex) {
			continue
		}
		specJSON, err := json.Marshal(sp)
		if err != nil {
			return job{}, err
		}
		j := job{
			Index: index, Shape: d.shape, Fault: d.fault,
			Spec: specJSON, Expect: ex.Selections, Branches: branchCounts(sp.Pipeline, 1),
		}
		if d.fault != "" {
			j.Faults, err = json.Marshal(g.faultPlan(d.fault))
			if err != nil {
				return job{}, err
			}
		}
		return j, nil
	}
	return job{}, fmt.Errorf("hostbench: no unambiguous %s spec for job %d after 64 draws", d.shape, index)
}

func selectsSomething(ex *expectation) bool {
	for _, sels := range ex.Selections {
		for _, sel := range sels {
			if len(sel) == 0 {
				return false
			}
		}
	}
	return true
}

func branchCounts(steps []spec.Step, instances int) []int {
	var out []int
	for _, st := range steps {
		if e := st.Explore; e != nil {
			for k := 0; k < instances; k++ {
				out = append(out, len(e.Branches))
			}
			out = append(out, branchCounts(e.Body, instances*len(e.Branches))...)
		}
	}
	return out
}

type gen struct {
	rng *rand.Rand
	// derive names the top-level selector whose bounds come from scores.
	derive string
	top    *spec.ExploreStep
}

func (g *gen) between(lo, hi float64) float64 {
	return math.Round((lo+(hi-lo)*g.rng.Float64())*1e4) / 1e4
}

// distinct draws n distinct parameter values in [lo, hi].
func (g *gen) distinct(n int, lo, hi float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for len(out) < n {
		v := g.between(lo, hi)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func (g *gen) branches(n int, key string, vals []float64) []spec.Branch {
	out := make([]spec.Branch, n)
	for i := range out {
		out[i] = spec.Branch{Label: fmt.Sprintf("b%d", i), Params: map[string]float64{key: vals[i]}}
	}
	return out
}

func op(name, fn string) spec.Step { return spec.Step{Op: &spec.OpStep{Name: name, Fn: fn}} }

func paramOp(name, fn, key string) spec.Step {
	return spec.Step{Op: &spec.OpStep{Name: name, Fn: fn, ParamKey: key}}
}

func (g *gen) spec(d draw, rows int) *spec.Spec {
	vbytes := int64(d.parts) << (25 + d.vclass)
	src := spec.Source{Rows: rows, Partitions: d.parts, VirtualBytes: vbytes, Seed: g.rng.Int63n(1 << 40)}
	n := d.branches
	var pipe []spec.Step
	explore := func(name string, brs []spec.Branch, body []spec.Step, ch spec.Choose) spec.Step {
		return spec.Step{Explore: &spec.ExploreStep{Name: name, Branches: brs, Body: body, Choose: ch}}
	}
	switch d.shape {
	case "filter-kthreshold":
		src.Distribution = "normal"
		pipe = []spec.Step{op("std", "standardize"), explore("ex",
			g.branches(n, "limit", g.distinct(n, 0.3, 3)),
			[]spec.Step{paramOp("f", "filter-absless", "limit")},
			spec.Choose{Evaluator: "ratio", Selector: spec.Selector{Kind: "kthreshold", K: 1 + g.rng.Intn(2)}})}
		g.derive = "threshold"
	case "filter-threshold":
		src.Distribution = "uniform"
		pipe = []spec.Step{explore("ex",
			g.branches(n, "limit", g.distinct(n, -0.9, 0.9)),
			[]spec.Step{paramOp("f", "filter-greater", "limit")},
			spec.Choose{Evaluator: "size", Selector: spec.Selector{Kind: "threshold", AtMost: g.rng.Intn(2) == 0}})}
		g.derive = "threshold"
	case "affine-topk":
		src.Distribution = "normal"
		pipe = []spec.Step{explore("ex",
			g.branches(n, "a", g.distinct(n, 0.2, 3)),
			[]spec.Step{
				{Op: &spec.OpStep{Name: "scale", Fn: "affine", ParamKey: "a", B: g.between(-0.5, 0.5)}},
				{Op: &spec.OpStep{Name: "pos", Fn: "filter-greater", Limit: g.between(-0.2, 0.2)}},
			},
			spec.Choose{Evaluator: "mean", Selector: spec.Selector{Kind: "topk", K: 1 + g.rng.Intn(n-1)}})}
	case "normalize-stddev":
		src.Distribution = "bimodal"
		kind := []string{"min", "max", "bottomk"}[g.rng.Intn(3)]
		pipe = []spec.Step{op("norm", "normalize"), explore("ex",
			g.branches(n, "limit", g.distinct(n, 0.2, 0.95)),
			[]spec.Step{paramOp("f", "filter-less", "limit")},
			spec.Choose{Evaluator: "stddev", Selector: spec.Selector{Kind: kind, K: 1 + g.rng.Intn(n-1)}})}
	case "nested-max":
		src.Distribution = "normal"
		no, ni := 3+g.rng.Intn(2), 3+g.rng.Intn(2)
		inner := explore("inner",
			g.branches(ni, "a", g.distinct(ni, 0.3, 2.5)),
			[]spec.Step{
				{Op: &spec.OpStep{Name: "scale", Fn: "affine", ParamKey: "a", B: g.between(0, 0.3)}},
				{Op: &spec.OpStep{Name: "pos", Fn: "filter-greater", Limit: g.between(0, 0.2)}},
			},
			spec.Choose{Evaluator: "mean", Selector: spec.Selector{Kind: "max"}})
		pipe = []spec.Step{explore("outer",
			g.branches(no, "limit", g.distinct(no, 0.8, 3)),
			[]spec.Step{paramOp("clip", "filter-absless", "limit"), inner},
			spec.Choose{Evaluator: "stddev", Selector: spec.Selector{Kind: "bottomk", K: 1 + g.rng.Intn(no-1)}})}
	case "nested-interval":
		src.Distribution = "uniform"
		no, ni := 3+g.rng.Intn(2), 3+g.rng.Intn(2)
		// Outer branches map [-1, 1] onto at least [-0.7, 0.3], so every
		// inner limit keeps some rows.
		inner := explore("inner",
			g.branches(ni, "limit", g.distinct(ni, -0.2, 1.5)),
			[]spec.Step{paramOp("cut", "filter-less", "limit")},
			spec.Choose{Evaluator: "size", Selector: spec.Selector{Kind: "topk", K: 1 + g.rng.Intn(ni-1)}})
		pipe = []spec.Step{explore("outer",
			g.branches(no, "a", g.distinct(no, 0.5, 2)),
			[]spec.Step{{Op: &spec.OpStep{Name: "scale", Fn: "affine", ParamKey: "a", B: g.between(-0.2, 0.2)}}, inner},
			spec.Choose{Evaluator: "mean", Selector: spec.Selector{Kind: "interval"}})}
		g.derive = "interval"
	case "iterate-max":
		src.Distribution = "normal"
		pipe = []spec.Step{op("std", "standardize"), explore("ex",
			g.branches(n, "a", g.distinct(n, 0.5, 1.8)),
			[]spec.Step{{Iterate: &spec.IterateStep{Name: "it", Rounds: 3 + g.rng.Intn(3),
				Op:                  spec.OpStep{Name: "step", Fn: "affine", ParamKey: "a", B: g.between(0.01, 0.1)},
				DivergeAboveMeanAbs: g.between(1.5, 3)}}},
			spec.Choose{Evaluator: "neg-mean-abs", Selector: spec.Selector{Kind: "max"}})}
	case "filter-mode":
		src.Distribution = "normal"
		wide := 2 + g.rng.Intn(2)
		lims := g.distinct(n, 0.4, 2.5)
		for i := 0; i < wide && i < n-1; i++ {
			lims[g.rng.Intn(n)] = 8 + float64(g.rng.Intn(1000))/100
		}
		pipe = []spec.Step{explore("ex",
			g.branches(n, "limit", uniqueValues(lims)),
			[]spec.Step{paramOp("f", "filter-absless", "limit")},
			spec.Choose{Evaluator: "size", Selector: spec.Selector{Kind: "mode"}})}
	case "filter-kinterval":
		src.Distribution = "bimodal"
		pipe = []spec.Step{op("std", "standardize"), explore("ex",
			g.branches(n, "limit", g.distinct(n, -1.5, 1.5)),
			[]spec.Step{paramOp("f", "filter-less", "limit")},
			spec.Choose{Evaluator: "ratio", Selector: spec.Selector{Kind: "kinterval", K: 1 + g.rng.Intn(2)}})}
		g.derive = "interval"
	case "iterate-topk":
		src.Distribution = "normal"
		brs := make([]spec.Branch, n)
		lims, as := g.distinct(n, 1, 3), g.distinct(n, 0.5, 1.7)
		for i := range brs {
			brs[i] = spec.Branch{Label: fmt.Sprintf("b%d", i), Params: map[string]float64{"limit": lims[i], "a": as[i]}}
		}
		pipe = []spec.Step{explore("ex", brs,
			[]spec.Step{
				{Iterate: &spec.IterateStep{Name: "it", Rounds: 2 + g.rng.Intn(3),
					Op:                  spec.OpStep{Name: "step", Fn: "affine", ParamKey: "a", B: g.between(0.01, 0.1)},
					DivergeAboveMeanAbs: g.between(1, 2)}},
				paramOp("clip", "filter-absless", "limit"),
			},
			spec.Choose{Evaluator: "neg-mean-abs", Selector: spec.Selector{Kind: "topk", K: 1 + g.rng.Intn(n-1)}})}
	default:
		panic("hostbench: unknown shape " + d.shape)
	}
	pipe = append(pipe, op("sink", "identity"))
	for _, st := range pipe {
		if st.Explore != nil {
			g.top = st.Explore
		}
	}
	return &spec.Spec{Name: d.shape, Source: src, Pipeline: pipe}
}

// uniqueValues nudges repeated values apart so every branch differs.
func uniqueValues(vs []float64) []float64 {
	seen := map[float64]bool{}
	for i, v := range vs {
		for seen[v] {
			v += 0.01
		}
		seen[v] = true
		vs[i] = v
	}
	return vs
}

// deriveSelector places the top-level selector's bound or interval between
// observed scores, so that at least one branch and usually not all pass.
func (g *gen) deriveSelector(sp *spec.Spec, scores []float64) bool {
	if g.derive == "" {
		return true
	}
	var fin []float64
	seen := map[float64]bool{}
	for _, v := range scores {
		if !math.IsInf(v, 0) && !seen[v] {
			seen[v] = true
			fin = append(fin, v)
		}
	}
	sort.Float64s(fin)
	if len(fin) < 2 {
		return false
	}
	mid := func(j int) float64 { return (fin[j] + fin[j+1]) / 2 }
	sel := &g.top.Choose.Selector
	switch g.derive {
	case "threshold":
		sel.Bound = mid(g.rng.Intn(len(fin) - 1))
	case "interval":
		a := g.rng.Intn(len(fin))
		b := a + g.rng.Intn(min(3, len(fin)-a))
		if a == 0 {
			sel.Lo = fin[0] - (fin[1]-fin[0])/2
		} else {
			sel.Lo = mid(a - 1)
		}
		if b == len(fin)-1 {
			sel.Hi = fin[b] + (fin[b]-fin[b-1])/2
		} else {
			sel.Hi = mid(b)
		}
	}
	return true
}

// faultPlan returns a transient fault that recovery absorbs: either one
// node crash after a few stages, or operator panics fewer than the retry
// budget allows.
func (g *gen) faultPlan(kind string) map[string]any {
	if kind == "crash" {
		return map[string]any{"crashes": []map[string]any{{"node": g.rng.Intn(4), "afterStages": 2 + g.rng.Intn(4)}}}
	}
	target, opName := "transform", bodyOpName(g.top)
	if g.rng.Intn(2) == 0 {
		target, opName = "eval", g.top.Name+"/choose"
	}
	return map[string]any{
		"panics": []map[string]any{{"op": opName, "target": target, "times": 1 + g.rng.Intn(2)}},
		"retry":  map[string]any{"maxAttempts": 3, "backoffSec": 0.5},
	}
}

// bodyOpName is the name of the first plain operator in an explore body.
func bodyOpName(ex *spec.ExploreStep) string {
	for _, st := range ex.Body {
		if st.Op != nil {
			return st.Op.Name
		}
		if st.Iterate != nil {
			// Iterate rounds are operators named "<name>/round<r>".
			return st.Iterate.Name + "/round1"
		}
	}
	return ""
}
