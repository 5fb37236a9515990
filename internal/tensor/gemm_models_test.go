package tensor_test

import (
	"math"
	"testing"

	"tdfm/internal/models"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// modelPass is everything one forward pass and one training step of a
// model produce: the inference output, the training-mode output, the
// input gradient, and every parameter gradient, in parameter order.
type modelPass struct {
	infer, train, dx []float64
	names            []string
	grads            [][]float64
}

// runModelPass builds arch from a fixed seed and runs an inference
// forward pass, then a training forward and backward pass against a
// fixed random output gradient, with the AVX2 row kernel on or off.
func runModelPass(t *testing.T, arch string, avx2 bool) modelPass {
	t.Helper()
	defer tensor.SwapAVX2ForTest(tensor.SwapAVX2ForTest(avx2))
	net, err := models.Build(arch, models.BuildConfig{
		InChannels: 3, Height: 12, Width: 12, NumClasses: 5,
		WidthMult: 1, RNG: xrand.New(11),
	})
	if err != nil {
		t.Fatalf("%s: %v", arch, err)
	}
	x := tensor.New(8, 3, 12, 12)
	xrand.New(12).FillNormal(x.Data(), 0, 1)
	clone := func(v *tensor.Tensor) []float64 { return append([]float64(nil), v.Data()...) }

	var p modelPass
	p.infer = clone(net.Forward(x, false))
	y := net.Forward(x, true)
	p.train = clone(y)
	dout := tensor.New(y.Shape()...)
	xrand.New(13).FillNormal(dout.Data(), 0, 1)
	p.dx = clone(net.Backward(dout))
	for _, prm := range net.Params() {
		p.names = append(p.names, prm.Name)
		p.grads = append(p.grads, clone(prm.Grad))
	}
	return p
}

// TestModelsAVX2MatchGeneric is the model-level differential test: for
// all seven architectures, a forward pass and one training step with the
// AVX2 row kernel must reproduce the generic loops bit for bit — outputs,
// input gradient, and every weight gradient.
func TestModelsAVX2MatchGeneric(t *testing.T) {
	if !tensor.AVX2ForTest() {
		t.Skip("AVX2 row kernel not selected on this CPU")
	}
	for _, arch := range models.StudyModels() {
		got, want := runModelPass(t, arch, true), runModelPass(t, arch, false)
		same := func(what string, g, w []float64) {
			t.Helper()
			if len(g) != len(w) {
				t.Fatalf("%s %s: %d values, generic %d", arch, what, len(g), len(w))
			}
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) && !(math.IsNaN(g[i]) && math.IsNaN(w[i])) {
					t.Fatalf("%s %s[%d] = %v, generic %v", arch, what, i, g[i], w[i])
				}
			}
		}
		same("inference output", got.infer, want.infer)
		same("training output", got.train, want.train)
		same("input gradient", got.dx, want.dx)
		if len(got.grads) != len(want.grads) {
			t.Fatalf("%s: %d parameter gradients, generic %d", arch, len(got.grads), len(want.grads))
		}
		for i := range want.grads {
			same("gradient of "+want.names[i], got.grads[i], want.grads[i])
		}
	}
}
