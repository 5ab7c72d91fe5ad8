package rf

import (
	"fmt"
	"math/rand"

	"repro/internal/dalia"
)

// Config sizes the forest. The defaults match the paper (8 trees, maximum
// depth 5) so that the classifier fits the LSM6DSM machine-learning core.
type Config struct {
	Trees    int
	MaxDepth int
	MinLeaf  int
	// FeatureSub is the number of features drawn per split (0 = all).
	FeatureSub int
	Seed       int64
	// Features selects the front-end feature subset; nil means the
	// paper's four.
	Features []FeatureID
}

// DefaultConfig returns the paper's forest configuration.
func DefaultConfig() Config {
	return Config{Trees: 8, MaxDepth: 5, MinLeaf: 2, FeatureSub: 2, Seed: 1}
}

// Classifier is a trained activity-recognition forest.
type Classifier struct {
	cfg   Config
	feats []FeatureID
	trees []*treeNode
}

// Train fits the forest on labelled windows.
func Train(ws []dalia.Window, cfg Config) (*Classifier, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("rf: empty training set")
	}
	if cfg.Trees <= 0 || cfg.MaxDepth <= 0 {
		return nil, fmt.Errorf("rf: invalid config %+v", cfg)
	}
	feats := cfg.Features
	if feats == nil {
		feats = PaperFeatures()
	}
	x := make([][]float64, len(ws))
	y := make([]int, len(ws))
	for i := range ws {
		x[i] = FeatureVector(&ws[i], feats)
		y[i] = int(ws[i].Activity)
	}
	return TrainVectors(x, y, dalia.NumActivities, feats, cfg)
}

// TrainVectors fits the forest on prepared feature vectors; exposed for
// the grid search, which reuses extracted features across subsets.
func TrainVectors(x [][]float64, y []int, classes int, feats []FeatureID, cfg Config) (*Classifier, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("rf: bad training shapes %d/%d", len(x), len(y))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Classifier{cfg: cfg, feats: append([]FeatureID(nil), feats...)}
	n := len(x)
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tree := growTree(x, y, idx, classes, cfg.MaxDepth+1, cfg.MinLeaf, cfg.FeatureSub, rng)
		c.trees = append(c.trees, tree)
	}
	return c, nil
}

// Classify returns the predicted activity for a window by majority vote.
func (c *Classifier) Classify(w *dalia.Window) dalia.Activity {
	return dalia.Activity(c.PredictVector(FeatureVector(w, c.feats)))
}

// PredictVector votes over a prepared feature vector.
func (c *Classifier) PredictVector(x []float64) int {
	var votes [dalia.NumActivities]int
	for _, t := range c.trees {
		votes[t.predict(x)]++
	}
	best, bestN := 0, -1
	// Iterate classes in order for deterministic tie breaking.
	for cl, n := range votes {
		if n > bestN {
			best, bestN = cl, n
		}
	}
	return best
}

// DifficultyID returns the 1-based difficulty rank of the predicted
// activity — the quantity CHRIS compares against its threshold.
func (c *Classifier) DifficultyID(w *dalia.Window) int {
	return c.Classify(w).DifficultyID()
}

// Features returns the front-end feature subset in use.
func (c *Classifier) Features() []FeatureID { return c.feats }

// Trees returns the number of trees.
func (c *Classifier) Trees() int { return len(c.trees) }

// MaxDepth returns the deepest tree's depth (root = depth 1 counts as one
// level, so a stump has depth 2).
func (c *Classifier) MaxDepth() int {
	max := 0
	for _, t := range c.trees {
		if d := t.depth(); d > max {
			max = d
		}
	}
	return max
}

// Nodes returns the total node count across trees, a proxy for the memory
// footprint inside the sensor's ML core.
func (c *Classifier) Nodes() int {
	total := 0
	for _, t := range c.trees {
		total += t.nodeCount()
	}
	return total
}

// Accuracy evaluates exact-activity accuracy on labelled windows.
func (c *Classifier) Accuracy(ws []dalia.Window) float64 {
	if len(ws) == 0 {
		return 0
	}
	good := 0
	for i := range ws {
		if c.Classify(&ws[i]) == ws[i].Activity {
			good++
		}
	}
	return float64(good) / float64(len(ws))
}

// EasyHardAccuracy evaluates the binary accuracy the paper cares about:
// whether a window lands on the correct side of the difficulty threshold.
func (c *Classifier) EasyHardAccuracy(ws []dalia.Window, threshold int) float64 {
	if len(ws) == 0 {
		return 0
	}
	good := 0
	for i := range ws {
		pred := c.DifficultyID(&ws[i]) <= threshold
		truth := ws[i].Activity.DifficultyID() <= threshold
		if pred == truth {
			good++
		}
	}
	return float64(good) / float64(len(ws))
}
