package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metadataflow/internal/spec"
)

// This file computes, without calling the program, which branches every
// choose of a spec must select: it regenerates the source values, applies
// each operator with its own arithmetic, scores the branches and runs the
// selection rules as the spec documents them. The service offers branch
// scores to a choose in branch order once every branch has run (it does not
// enable incremental evaluation), so first-k and mode selections follow
// branch order.
//
// Comparisons that the program's own floating-point order of operations
// could decide differently are reported as ambiguous; the generator redraws
// such specs, so every generated job has exactly one correct answer.

// margin is the relative distance below which two compared values count as
// a possible tie.
const margin = 1e-7

// expectation is the outcome of interpreting one spec.
type expectation struct {
	// Selections maps an explore name to the selection of each of its
	// instances, in instance order (a nested explore has one instance per
	// enclosing branch).
	Selections map[string][][]int
	// TopScores are the branch scores of the last top-level explore; the
	// generator derives selector bounds from them.
	TopScores []float64
	// Ambiguous names the first comparison that fell within margin.
	Ambiguous string
}

type interp struct {
	srcRows int
	exp     *expectation
	depth   int
}

// sourceValues regenerates a synthetic source: the program draws each row
// from math/rand seeded with the source seed.
func sourceValues(src spec.Source) []float64 {
	rng := rand.New(rand.NewSource(src.Seed))
	out := make([]float64, src.Rows)
	for i := range out {
		switch src.Distribution {
		case "uniform":
			out[i] = -1 + 2*rng.Float64()
		case "bimodal":
			if rng.Float64() < 0.5 {
				out[i] = -2 + 0.5*rng.NormFloat64()
			} else {
				out[i] = 2 + 0.5*rng.NormFloat64()
			}
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// expect interprets s.
func expect(s *spec.Spec) *expectation {
	ip := &interp{srcRows: s.Source.Rows, exp: &expectation{Selections: map[string][][]int{}}}
	ip.steps(sourceValues(s.Source), s.Pipeline, nil)
	return ip.exp
}

func (ip *interp) ambiguous(format string, args ...any) {
	if ip.exp.Ambiguous == "" {
		ip.exp.Ambiguous = fmt.Sprintf(format, args...)
	}
}

// near reports whether a and b are too close to order reliably.
func near(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= margin*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func (ip *interp) steps(xs []float64, steps []spec.Step, params map[string]float64) []float64 {
	for _, st := range steps {
		switch {
		case st.Op != nil:
			xs = ip.op(*st.Op, xs, params)
		case st.Iterate != nil:
			xs = ip.iterate(*st.Iterate, xs, params)
		case st.Explore != nil:
			xs = ip.explore(*st.Explore, xs)
		}
	}
	return xs
}

func param(op spec.OpStep, params map[string]float64, def float64) float64 {
	if op.ParamKey != "" {
		if v, ok := params[op.ParamKey]; ok {
			return v
		}
	}
	return def
}

func (ip *interp) op(op spec.OpStep, xs []float64, params map[string]float64) []float64 {
	out := make([]float64, 0, len(xs))
	switch op.Fn {
	case "identity", "":
		return xs
	case "affine":
		a := param(op, params, op.A)
		for _, x := range xs {
			out = append(out, a*x+op.B)
		}
	case "square":
		for _, x := range xs {
			out = append(out, x*x)
		}
	case "abs":
		for _, x := range xs {
			out = append(out, math.Abs(x))
		}
	case "filter-less", "filter-greater", "filter-absless":
		limit := param(op, params, op.Limit)
		for _, x := range xs {
			v := x
			if op.Fn == "filter-absless" {
				v = math.Abs(x)
			}
			if near(v, limit) {
				ip.ambiguous("filter %q: value %g at limit %g", op.Name, v, limit)
			}
			keep := v < limit
			if op.Fn == "filter-greater" {
				keep = v > limit
			}
			if keep {
				out = append(out, x)
			}
		}
	case "normalize":
		if len(xs) == 0 {
			return xs
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		for _, x := range xs {
			out = append(out, (x-lo)/span)
		}
	case "standardize":
		if len(xs) == 0 {
			return xs
		}
		m, sd := mean(xs), stddev(xs)
		if sd == 0 {
			sd = 1
		}
		for _, x := range xs {
			out = append(out, (x-m)/sd)
		}
	default:
		ip.ambiguous("unknown op fn %q", op.Fn)
	}
	return out
}

func (ip *interp) iterate(it spec.IterateStep, xs []float64, params map[string]float64) []float64 {
	for r := 0; r < it.Rounds; r++ {
		if len(xs) == 0 {
			return xs
		}
		xs = ip.op(it.Op, xs, params)
		if it.DivergeAboveMeanAbs > 0 && len(xs) > 0 {
			ma := meanAbs(xs)
			if near(ma, it.DivergeAboveMeanAbs) {
				ip.ambiguous("iterate %q: mean |x| %g at divergence bound", it.Name, ma)
			}
			if ma > it.DivergeAboveMeanAbs {
				return nil
			}
		}
	}
	return xs
}

func (ip *interp) explore(ex spec.ExploreStep, xs []float64) []float64 {
	outs := make([][]float64, len(ex.Branches))
	scores := make([]float64, len(ex.Branches))
	ip.depth++
	for b, br := range ex.Branches {
		outs[b] = ip.steps(xs, ex.Body, br.Params)
		scores[b] = ip.score(ex.Choose.Evaluator, outs[b])
	}
	ip.depth--
	if ip.depth == 0 {
		ip.exp.TopScores = scores
	}
	sel := ip.selectBranches(ex, scores)
	ip.exp.Selections[ex.Name] = append(ip.exp.Selections[ex.Name], sel)
	switch len(sel) {
	case 0:
		return nil
	case 1:
		return outs[sel[0]]
	}
	var cat []float64
	for _, b := range sel {
		cat = append(cat, outs[b]...)
	}
	return cat
}

func (ip *interp) score(evaluator string, xs []float64) float64 {
	switch evaluator {
	case "size", "":
		return float64(len(xs))
	case "ratio":
		if ip.srcRows == 0 {
			return 0
		}
		return float64(len(xs)) / float64(ip.srcRows)
	}
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	switch evaluator {
	case "mean":
		return mean(xs)
	case "neg-mean-abs":
		return -meanAbs(xs)
	case "stddev":
		return stddev(xs)
	}
	ip.ambiguous("unknown evaluator %q", evaluator)
	return 0
}

// exactScores reports evaluators whose equal scores are equal in any
// evaluation order (integer row counts).
func exactScores(evaluator string) bool {
	return evaluator == "size" || evaluator == "ratio" || evaluator == ""
}

func (ip *interp) selectBranches(ex spec.ExploreStep, scores []float64) []int {
	sel := ex.Choose.Selector
	exact := exactScores(ex.Choose.Evaluator)
	pass := func(b int) bool {
		v := scores[b]
		switch sel.Kind {
		case "threshold", "kthreshold":
			if near(v, sel.Bound) {
				ip.ambiguous("choose %q: score %g at bound %g", ex.Name, v, sel.Bound)
			}
			if sel.AtMost {
				return v <= sel.Bound
			}
			return v >= sel.Bound
		default: // interval, kinterval
			if near(v, sel.Lo) || near(v, sel.Hi) {
				ip.ambiguous("choose %q: score %g at interval [%g, %g]", ex.Name, v, sel.Lo, sel.Hi)
			}
			return v >= sel.Lo && v <= sel.Hi
		}
	}
	var out []int
	switch sel.Kind {
	case "topk", "bottomk", "min", "max", "":
		k := max(1, sel.K)
		if sel.Kind == "min" || sel.Kind == "max" || sel.Kind == "" {
			k = 1
		}
		lowest := sel.Kind == "bottomk" || sel.Kind == "min"
		order := make([]int, len(scores))
		for i := range order {
			order[i] = i
		}
		// Ties keep branch order: the program's selection sort is stable.
		sort.SliceStable(order, func(i, j int) bool {
			a, b := scores[order[i]], scores[order[j]]
			if lowest {
				return a < b
			}
			return a > b
		})
		if k < len(order) {
			in, outside := scores[order[k-1]], scores[order[k]]
			if in != outside && near(in, outside) || in == outside && !exact && !math.IsInf(in, 0) {
				ip.ambiguous("choose %q: scores %g and %g tie at the top-%d boundary", ex.Name, in, outside, k)
			}
			order = order[:k]
		}
		out = append(out, order...)
	case "threshold", "interval":
		for b := range scores {
			if pass(b) {
				out = append(out, b)
			}
		}
	case "kthreshold", "kinterval":
		k := max(1, sel.K)
		for b := range scores {
			if len(out) < k && pass(b) {
				out = append(out, b)
			}
		}
	case "mode":
		if !exact {
			ip.ambiguous("choose %q: mode over non-integer scores", ex.Name)
		}
		counts := map[float64]int{}
		for _, v := range scores {
			counts[v]++
		}
		best, bestN := 0.0, -1
		for _, v := range scores { // first seen wins ties
			if counts[v] > bestN {
				best, bestN = v, counts[v]
			}
		}
		for b, v := range scores {
			if v == best {
				out = append(out, b)
			}
		}
	default:
		ip.ambiguous("unknown selector %q", sel.Kind)
	}
	sort.Ints(out)
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanAbs(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

// stddev is the population standard deviation.
func stddev(xs []float64) float64 {
	m := mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
