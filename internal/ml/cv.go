package ml

import (
	"fmt"
	"math/rand"
)

// KFold partitions [0, n) into k disjoint folds, shuffled by seed. Fold
// sizes differ by at most one.
func KFold(n, k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// CrossValidateAccuracy runs k-fold cross-validation under the
// tolerance-accuracy criterion: fit is called with each training split,
// the returned models predict their held-out folds, and the result is the
// fraction of held-out predictions within absTol + relTol*|y| of the
// target — the evaluation protocol of Section 3.1.2 ("cross-validation
// ... conducted on instances omitted from the training set, to avoid
// overfitting").
func CrossValidateAccuracy(d *Dataset, k int, seed int64, absTol, relTol float64,
	fit func(train *Dataset) Model) (float64, error) {
	n := d.Len()
	if n < 2 {
		return 0, fmt.Errorf("ml: cross-validation needs >= 2 examples, have %d", n)
	}
	folds := KFold(n, k, seed)
	hits, total := 0, 0
	for f := range folds {
		holdout := map[int]bool{}
		for _, i := range folds[f] {
			holdout[i] = true
		}
		var trainIdx []int
		for i := 0; i < n; i++ {
			if !holdout[i] {
				trainIdx = append(trainIdx, i)
			}
		}
		m := fit(d.Subset(trainIdx))
		for _, i := range folds[f] {
			limit := absTol + relTol*abs(d.Y[i])
			if abs(m.Predict(d.X[i])-d.Y[i]) <= limit {
				hits++
			}
			total++
		}
	}
	return float64(hits) / float64(total), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
