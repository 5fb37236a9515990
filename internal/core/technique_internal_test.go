package core

import (
	"bytes"
	"math"
	"testing"

	"tdfm/internal/data"
	"tdfm/internal/loss"
	"tdfm/internal/models"
	"tdfm/internal/nn"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

func TestBuiltModelSnapshotRoundTrip(t *testing.T) {
	train, test := tinySet(t)
	c, err := Baseline{}.Train(fastConfig(), TrainSet{Data: train}, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := c.(Snapshotter)
	if !ok {
		t.Fatal("builtModel must implement Snapshotter")
	}
	var buf bytes.Buffer
	if err := snap.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh, untrained model restored from the snapshot must agree with
	// the trained model on every test prediction.
	fresh, _, err := fastConfig().buildFor(train, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := nn.DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.(Snapshotter).RestoreSnapshot(decoded); err != nil {
		t.Fatal(err)
	}
	p1, p2 := c.Predict(test.X), fresh.Predict(test.X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("restored model disagrees with original")
		}
	}
}

func TestDistillLossFallsBackToCE(t *testing.T) {
	d := &distillLoss{kd: loss.Distillation{Alpha: 0.5, T: 2}, classes: 3}
	logits := tensor.FromSlice([]float64{1, 0, -1}, 1, 3)
	targets := data.OneHot([]int{0}, 3)
	l1, g1 := d.Forward(logits, targets)
	l2, g2 := loss.CrossEntropy{}.Forward(logits, targets)
	if math.Abs(l1-l2) > 1e-12 || !g1.Equal(g2, 0) {
		t.Fatal("distillLoss without batch context must reduce to CE")
	}
}

func TestSecondaryFeatureLayout(t *testing.T) {
	sec := newSecondary(3, 8, xrand.New(1))
	logits := tensor.FromSlice([]float64{5, 0, 0, 0, 5, 0}, 2, 3)
	feats := sec.features(logits, []int{2, 0})
	if feats.Dim(0) != 2 || feats.Dim(1) != 6 {
		t.Fatalf("feature shape %v", feats.Shape())
	}
	// First half of each row: softmax of the logits (dominated by the large
	// entry); second half: one-hot of the given label.
	if feats.At(0, 0) < 0.9 {
		t.Fatalf("softmax feature wrong: %v", feats.At(0, 0))
	}
	if feats.At(0, 3+2) != 1 || feats.At(1, 3+0) != 1 {
		t.Fatal("label one-hot misplaced")
	}
	if feats.At(0, 3) != 0 || feats.At(0, 4) != 0 {
		t.Fatal("non-label slots must be zero")
	}
}

func TestSecondaryCorrectSumsToOne(t *testing.T) {
	sec := newSecondary(4, 8, xrand.New(2))
	logits := tensor.New(3, 4)
	xrand.New(3).FillNormal(logits.Data(), 0, 1)
	out := sec.correct(logits, []int{0, 1, 2})
	for r := 0; r < 3; r++ {
		s := 0.0
		for c := 0; c < 4; c++ {
			s += out.At(r, c)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("corrected row %d sums to %v", r, s)
		}
	}
}

func TestSynthFlipDefaults(t *testing.T) {
	lc := &LabelCorrection{SynthFlip: -1}
	if lc.synthFlip() != 0.35 {
		t.Fatal("bad SynthFlip should fall back to default")
	}
	lc = &LabelCorrection{SynthFlip: 0.2}
	if lc.synthFlip() != 0.2 {
		t.Fatal("valid SynthFlip ignored")
	}
}

func TestPredictBatching(t *testing.T) {
	// A test set larger than predictBatch must be handled in chunks with no
	// dropped rows.
	train, _ := tinySet(t)
	c, err := Baseline{}.Train(fastConfig(), TrainSet{Data: train}, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	big := tensor.New(predictBatch+17, 1, 12, 12)
	xrand.New(24).FillNormal(big.Data(), 0, 1)
	pred := c.Predict(big)
	if len(pred) != predictBatch+17 {
		t.Fatalf("%d predictions", len(pred))
	}
	probs := c.PredictProbs(big)
	if probs.Dim(0) != predictBatch+17 {
		t.Fatalf("probs rows %d", probs.Dim(0))
	}
	// Probabilities must be valid per row.
	for r := 0; r < probs.Dim(0); r++ {
		s := 0.0
		for k := 0; k < probs.Dim(1); k++ {
			v := probs.At(r, k)
			if v < 0 || v > 1 {
				t.Fatalf("prob out of range: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestLabelSmoothingClassicVariant(t *testing.T) {
	train, test := tinySet(t)
	classic := LabelSmoothing{Alpha: 0.2, Classic: true}
	relax := LabelSmoothing{Alpha: 0.2}
	c1, err := classic.Train(fastConfig(), TrainSet{Data: train}, xrand.New(25))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := relax.Train(fastConfig(), TrainSet{Data: train}, xrand.New(25))
	if err != nil {
		t.Fatal(err)
	}
	// Both variants must learn; they will generally differ somewhere.
	a1 := Accuracy(c1, test)
	a2 := Accuracy(c2, test)
	if a1 < 0.5 || a2 < 0.5 {
		t.Fatalf("smoothing variants failed to learn: %.2f / %.2f", a1, a2)
	}
}

// TestBuildForSkipsInputGrad checks that every study architecture starts
// with a Conv2D that buildFor marks, so a training step computes no
// gradient with respect to the raw input.
func TestBuildForSkipsInputGrad(t *testing.T) {
	train, _ := tinySet(t)
	for _, arch := range models.StudyModels() {
		_, bm, err := Config{Arch: arch}.buildFor(train, xrand.New(31))
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		bx := train.X.SliceRows(0, 4)
		logits := bm.net.Forward(bx, true)
		if dx := bm.net.Backward(tensor.NewLike(logits)); dx != nil {
			t.Errorf("%s: Backward returned an input gradient %v", arch, dx.Shape())
		}
		ReleaseArenas(bm)
	}
}
