package main

import (
	"math"
	"reflect"
	"testing"

	"metadataflow/internal/spec"
)

// run interprets a pipeline over explicit input values.
func run(xs []float64, steps ...spec.Step) *expectation {
	ip := &interp{srcRows: len(xs), exp: &expectation{Selections: map[string][][]int{}}}
	ip.steps(xs, steps, nil)
	return ip.exp
}

func filterExplore(fn string, limits []float64, ev string, sel spec.Selector) spec.Step {
	brs := make([]spec.Branch, len(limits))
	for i, l := range limits {
		brs[i] = spec.Branch{Params: map[string]float64{"limit": l}}
	}
	return spec.Step{Explore: &spec.ExploreStep{
		Name: "ex", Branches: brs,
		Body:   []spec.Step{paramOp("f", fn, "limit")},
		Choose: spec.Choose{Evaluator: ev, Selector: sel},
	}}
}

// TestSelectorsByHand checks the selection rules on inputs worked by hand.
// With values {-3, -1, 0, 1, 2, 5} and |x| < {0.5, 1.5, 2.5, 10}, the
// branch sizes are 1, 3, 4 and 6 (ratios over 6 rows).
func TestSelectorsByHand(t *testing.T) {
	xs := []float64{-3, -1, 0, 1, 2, 5}
	limits := []float64{0.5, 1.5, 2.5, 10}
	cases := []struct {
		ev   string
		sel  spec.Selector
		want []int
	}{
		{"size", spec.Selector{Kind: "topk", K: 2}, []int{2, 3}},
		{"size", spec.Selector{Kind: "bottomk", K: 2}, []int{0, 1}},
		{"size", spec.Selector{Kind: "max"}, []int{3}},
		{"size", spec.Selector{Kind: "min"}, []int{0}},
		{"size", spec.Selector{Kind: "threshold", Bound: 3.5}, []int{2, 3}},
		{"size", spec.Selector{Kind: "threshold", Bound: 3.5, AtMost: true}, []int{0, 1}},
		{"ratio", spec.Selector{Kind: "kthreshold", K: 1, Bound: 0.4}, []int{1}},
		{"size", spec.Selector{Kind: "interval", Lo: 2, Hi: 4.5}, []int{1, 2}},
		{"size", spec.Selector{Kind: "kinterval", K: 1, Lo: 2, Hi: 4.5}, []int{1}},
		// All sizes differ, so every count is one and the first branch wins.
		{"size", spec.Selector{Kind: "mode"}, []int{0}},
	}
	for _, c := range cases {
		ex := run(xs, filterExplore("filter-absless", limits, c.ev, c.sel))
		if ex.Ambiguous != "" {
			t.Errorf("%s %+v: ambiguous: %s", c.ev, c.sel, ex.Ambiguous)
		}
		if got := ex.Selections["ex"]; !reflect.DeepEqual(got, [][]int{c.want}) {
			t.Errorf("%s %+v: selected %v, want %v", c.ev, c.sel, got, c.want)
		}
	}
}

// TestModeTies: two limits above every |x| keep all six rows, so size 6
// is the most frequent score and both of those branches are selected.
func TestModeTies(t *testing.T) {
	ex := run([]float64{-3, -1, 0, 1, 2, 5}, filterExplore("filter-absless", []float64{8, 1.5, 9}, "size", spec.Selector{Kind: "mode"}))
	if got := ex.Selections["ex"]; !reflect.DeepEqual(got, [][]int{{0, 2}}) {
		t.Errorf("selected %v, want [[0 2]]", got)
	}
}

// TestNestedByHand: the outer explore scales by a in {1, 2}; the inner one
// keeps x > {0.5, 1.5} and picks the larger result (size 3 vs 2 for a=1; a
// tie at 3 for a=2, which the first branch wins). The outer choose then
// prefers the higher mean: 8/3 for a=1 against 16/3 for a=2.
func TestNestedByHand(t *testing.T) {
	inner := filterExplore("filter-greater", []float64{0.5, 1.5}, "size", spec.Selector{Kind: "max"})
	inner.Explore.Name = "inner"
	outer := spec.Step{Explore: &spec.ExploreStep{
		Name: "outer",
		Branches: []spec.Branch{
			{Params: map[string]float64{"a": 1}},
			{Params: map[string]float64{"a": 2}},
		},
		Body:   []spec.Step{{Op: &spec.OpStep{Name: "scale", Fn: "affine", ParamKey: "a"}}, inner},
		Choose: spec.Choose{Evaluator: "mean", Selector: spec.Selector{Kind: "max"}},
	}}
	ex := run([]float64{-3, -1, 0, 1, 2, 5}, outer)
	want := map[string][][]int{"inner": {{0}, {0}}, "outer": {{1}}}
	if !reflect.DeepEqual(ex.Selections, want) || ex.Ambiguous != "" {
		t.Errorf("selected %v (ambiguous %q), want %v", ex.Selections, ex.Ambiguous, want)
	}
	if want := []float64{8.0 / 3, 16.0 / 3}; math.Abs(ex.TopScores[0]-want[0]) > 1e-12 || math.Abs(ex.TopScores[1]-want[1]) > 1e-12 {
		t.Errorf("outer scores %v, want %v", ex.TopScores, want)
	}
}

// TestIterateDiverges: doubling {1, 2, 3} gives mean |x| 4, 8, 16; a bound
// of 10 terminates the branch in round three, and an empty branch scores
// -Inf under neg-mean-abs, so max picks the halving branch.
func TestIterateDiverges(t *testing.T) {
	body := []spec.Step{{Iterate: &spec.IterateStep{Name: "it", Rounds: 3,
		Op: spec.OpStep{Name: "step", Fn: "affine", ParamKey: "a"}, DivergeAboveMeanAbs: 10}}}
	ex := run([]float64{1, 2, 3}, spec.Step{Explore: &spec.ExploreStep{
		Name:     "ex",
		Branches: []spec.Branch{{Params: map[string]float64{"a": 2}}, {Params: map[string]float64{"a": 0.5}}},
		Body:     body,
		Choose:   spec.Choose{Evaluator: "neg-mean-abs", Selector: spec.Selector{Kind: "max"}},
	}})
	if !math.IsInf(ex.TopScores[0], -1) || ex.TopScores[1] != -0.25 {
		t.Errorf("scores %v, want [-Inf -0.25]", ex.TopScores)
	}
	if got := ex.Selections["ex"]; !reflect.DeepEqual(got, [][]int{{1}}) {
		t.Errorf("selected %v, want [[1]]", got)
	}
}

// TestStandardize: {1, 2, 3} has mean 2 and population deviation
// sqrt(2/3), so standardized values are 0 and ±sqrt(3/2).
func TestStandardize(t *testing.T) {
	ip := &interp{exp: &expectation{Selections: map[string][][]int{}}}
	got := ip.op(spec.OpStep{Fn: "standardize"}, []float64{1, 2, 3}, nil)
	r := math.Sqrt(1.5)
	for i, w := range []float64{-r, 0, r} {
		if math.Abs(got[i]-w) > 1e-12 {
			t.Fatalf("standardize = %v, want [%g 0 %g]", got, -r, r)
		}
	}
}

// TestAmbiguousLimit: a value exactly at a filter limit could fall either
// way under a different order of operations, so it is flagged.
func TestAmbiguousLimit(t *testing.T) {
	ex := run([]float64{-1, 0, 1}, filterExplore("filter-less", []float64{0, 2}, "size", spec.Selector{Kind: "max"}))
	if ex.Ambiguous == "" {
		t.Error("a value at a filter limit was not flagged")
	}
}

// TestCompareSelections matches choose-stage keys to explore names, nested
// instances in stage order.
func TestCompareSelections(t *testing.T) {
	got := map[string][]int{"T3[ex/choose..sink]": {1}, "T9[inner/choose]": {0}, "T5[inner/choose]": {1}}
	if err := compareSelections(map[string][][]int{"ex": {{1}}, "inner": {{1}, {0}}}, got); err != nil {
		t.Error(err)
	}
	if err := compareSelections(map[string][][]int{"ex": {{1}}, "inner": {{0}, {1}}}, got); err == nil {
		t.Error("instances out of stage order were accepted")
	}
}
