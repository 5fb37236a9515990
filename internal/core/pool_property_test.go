package core

import (
	"math"
	"testing"

	"tdfm/internal/data"
	"tdfm/internal/models"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// TestTrainingPooledMatchesUnpooled is the byte-identity property behind
// the whole pooling design (DESIGN.md §10): training with the buffer pool
// and arena enabled produces bit-for-bit the same model — observed
// through its test-set probabilities — as the reference allocate-per-call
// path with TDFM_POOL=off, for every study architecture. Zeroing handouts
// are filled exactly like fresh buffers; overwrite-only handouts go only
// to kernels that write every element. The nan-fill variant checks the
// second half directly: every overwrite-only handout arrives full of NaN,
// so an element such a kernel leaves unwritten would poison the model.
func TestTrainingPooledMatchesUnpooled(t *testing.T) {
	train, test := tinySet(t)
	for _, arch := range models.StudyModels() {
		t.Run(arch, func(t *testing.T) {
			cfg := Config{Arch: arch, Epochs: 2, BatchSize: 32, LR: 0.01}
			off := pooledRunProbs(t, cfg, train, test, false, false)
			for _, v := range []struct {
				name   string
				poison bool
			}{{"pooled", false}, {"pooled-nan-fill", true}} {
				on := pooledRunProbs(t, cfg, train, test, true, v.poison)
				if len(on) != len(off) {
					t.Fatalf("%s: probability counts differ: %d vs %d", v.name, len(on), len(off))
				}
				for i := range on {
					if math.Float64bits(on[i]) != math.Float64bits(off[i]) {
						t.Fatalf("%s: probs[%d] differ: pooled %v vs unpooled %v (not bit-identical)",
							v.name, i, on[i], off[i])
					}
				}
			}
		})
	}
}

// pooledRunProbs trains a baseline model with pooling (and NaN-filled
// overwrite-only handouts) set as given and returns its test-set
// probabilities.
func pooledRunProbs(t *testing.T, cfg Config, train, test *data.Dataset, pooled, poison bool) []float64 {
	t.Helper()
	old := tensor.PoolingEnabled()
	tensor.SetPooling(pooled)
	defer tensor.SetPooling(old)
	tensor.SetUninitPoison(poison)
	defer tensor.SetUninitPoison(false)
	c, err := Baseline{}.Train(cfg, TrainSet{Data: train}, xrand.New(11))
	if err != nil {
		t.Fatalf("pooled=%v poison=%v: %v", pooled, poison, err)
	}
	defer ReleaseArenas(c)
	return append([]float64(nil), c.PredictProbs(test.X).Data()...)
}
