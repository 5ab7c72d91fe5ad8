package rf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dalia"
)

func datasetWindows(t *testing.T, subjects int, scale float64) []dalia.Window {
	t.Helper()
	c := dalia.DefaultConfig()
	c.Subjects = subjects
	c.DurationScale = scale
	var out []dalia.Window
	for s := 0; s < subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range dalia.Windows(rec, c.WindowSamples, c.StrideSamples) {
			if w.Purity == 1 { // train/eval on unambiguous windows
				out = append(out, w)
			}
		}
	}
	return out
}

func TestTrainAndClassify(t *testing.T) {
	ws := datasetWindows(t, 3, 0.04)
	split := len(ws) * 2 / 3
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	train, test := ws[:split], ws[split:]

	cls, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc := cls.Accuracy(test)
	t.Logf("9-class accuracy: %.3f on %d windows", acc, len(test))
	if acc < 0.5 {
		t.Errorf("9-class accuracy %.3f too low", acc)
	}
	// The paper's claim: >90%% easy-vs-hard accuracy. Check a mid
	// threshold and the extremes.
	for _, thr := range []int{3, 5, 7} {
		ehAcc := cls.EasyHardAccuracy(test, thr)
		t.Logf("easy/hard accuracy @%d: %.3f", thr, ehAcc)
		if ehAcc < 0.85 {
			t.Errorf("easy/hard accuracy %.3f at threshold %d below 0.85", ehAcc, thr)
		}
	}
}

func TestForestRespectsMLCoreLimits(t *testing.T) {
	ws := datasetWindows(t, 2, 0.03)
	cfg := DefaultConfig()
	cls, err := Train(ws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Trees() != cfg.Trees {
		t.Errorf("trees = %d, want %d", cls.Trees(), cfg.Trees)
	}
	// Depth counts levels including leaves: maxDepth 5 means ≤ 6 levels.
	if d := cls.MaxDepth(); d > cfg.MaxDepth+1 {
		t.Errorf("tree depth %d exceeds limit %d", d, cfg.MaxDepth+1)
	}
	if cls.Nodes() <= 0 {
		t.Error("no nodes")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	ws := datasetWindows(t, 1, 0.02)
	bad := DefaultConfig()
	bad.Trees = 0
	if _, err := Train(ws, bad); err == nil {
		t.Error("zero trees accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	ws := datasetWindows(t, 2, 0.03)
	a, _ := Train(ws, DefaultConfig())
	b, _ := Train(ws, DefaultConfig())
	for i := range ws {
		if a.Classify(&ws[i]) != b.Classify(&ws[i]) {
			t.Fatalf("same-seed forests disagree on window %d", i)
		}
	}
}

func TestFeatureExtraction(t *testing.T) {
	mag := []float64{0, 1, 0, 1, 0, 1, 0, 1}
	if Extract(FeatMean, mag) != 0.5 {
		t.Errorf("mean = %v", Extract(FeatMean, mag))
	}
	if Extract(FeatEnergy, mag) != 0.5 {
		t.Errorf("energy = %v", Extract(FeatEnergy, mag))
	}
	if got := Extract(FeatNumPeaks, mag); got != 6 {
		t.Errorf("num_peaks = %v, want 6", got)
	}
	if got := Extract(FeatureID(99), mag); got != 0 {
		t.Errorf("unknown feature = %v, want 0", got)
	}
	seen := map[string]bool{}
	for _, f := range AllFeatures() {
		if s := f.String(); seen[s] || s == "" {
			t.Errorf("bad feature name %q", s)
		} else {
			seen[s] = true
		}
	}
}

// Property: the majority vote always returns a valid class, and unanimous
// forests return the unanimous class.
func TestPredictVectorQuick(t *testing.T) {
	ws := datasetWindows(t, 1, 0.02)
	cls, err := Train(ws, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d float64) bool {
		x := []float64{a, b, c, d}
		for i := range x {
			if x[i] != x[i] { // NaN guard
				x[i] = 0
			}
		}
		cl := cls.PredictVector(x)
		return cl >= 0 && cl < dalia.NumActivities
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPredictVectorTieBreaksToLowerClass votes a hand-built two-tree forest
// into a one-to-one tie: the lower class must win whichever tree holds it,
// and the vote must not allocate.
func TestPredictVectorTieBreaksToLowerClass(t *testing.T) {
	split := &treeNode{Feature: 0, Threshold: 0.5,
		Left: &treeNode{Class: 7}, Right: &treeNode{Class: 1}}
	for _, trees := range [][]*treeNode{
		{split, {Class: 4}},
		{{Class: 4}, split},
	} {
		cls := &Classifier{trees: trees}
		if got := cls.PredictVector([]float64{0}); got != 4 {
			t.Errorf("tie between classes 7 and 4 resolved to %d, want 4", got)
		}
		if got := cls.PredictVector([]float64{1}); got != 1 {
			t.Errorf("tie between classes 1 and 4 resolved to %d, want 1", got)
		}
	}
	cls := &Classifier{trees: []*treeNode{split, {Class: 4}}}
	x := []float64{1}
	if n := testing.AllocsPerRun(100, func() { cls.PredictVector(x) }); n != 0 {
		t.Errorf("PredictVector allocates %v per call", n)
	}
}

func TestGiniHelpers(t *testing.T) {
	y := []int{0, 0, 1, 1}
	idx := []int{0, 1, 2, 3}
	if g := giniOf(y, idx, 2); g != 0.5 {
		t.Errorf("gini of balanced binary = %v, want 0.5", g)
	}
	if g := giniOf(y, idx[:2], 2); g != 0 {
		t.Errorf("gini of pure set = %v, want 0", g)
	}
	if c := majorityClass([]int{2, 2, 1}, []int{0, 1, 2}, 3); c != 2 {
		t.Errorf("majority = %d, want 2", c)
	}
	if !pure([]int{5, 5}, []int{0, 1}) || pure([]int{1, 2}, []int{0, 1}) {
		t.Error("pure() broken")
	}
}

func TestGridSearchSmall(t *testing.T) {
	ws := datasetWindows(t, 3, 0.03)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	split := len(ws) * 2 / 3
	cfg := DefaultConfig()
	cfg.Trees = 4 // keep the 210-subset sweep fast
	results, err := GridSearch(ws[:split], ws[split:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// C(10,4) = 210 subsets.
	if len(results) != 210 {
		t.Fatalf("got %d subsets, want 210", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Accuracy > results[i-1].Accuracy {
			t.Fatal("results not sorted by accuracy")
		}
	}
	t.Logf("best subset %v acc %.3f", results[0].Features, results[0].Accuracy)
	// The paper's subset should be competitive: within 10%% of the best.
	var paperAcc float64
	for _, r := range results {
		if sameFeatures(r.Features, PaperFeatures()) {
			paperAcc = r.Accuracy
		}
	}
	if paperAcc < results[0].Accuracy-0.1 {
		t.Errorf("paper subset accuracy %.3f far below best %.3f", paperAcc, results[0].Accuracy)
	}
	if _, err := GridSearch(nil, ws, cfg); err == nil {
		t.Error("empty grid-search inputs accepted")
	}
}

func sameFeatures(a, b []FeatureID) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[FeatureID]bool{}
	for _, f := range a {
		m[f] = true
	}
	for _, f := range b {
		if !m[f] {
			return false
		}
	}
	return true
}
