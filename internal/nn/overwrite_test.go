package nn

import (
	"math"
	"testing"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// reluSpecials are the values where a branch-free ReLU could part from
// the branchy one: signed zeros, NaNs of both signs and a payload,
// infinities, subnormals, and the extremes.
var reluSpecials = []float64{
	math.Copysign(0, -1), 0,
	math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0abc), math.Float64frombits(0xfff8_0000_0000_0123),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), -math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// branchyReLU is the ReLU forward and backward as first written: copy,
// then zero where v <= 0; zero-filled dx, then copy where out > 0.
func branchyReLU(x, dout []float64) (out, dx []float64) {
	out = append([]float64(nil), x...)
	for i, v := range out {
		if v <= 0 {
			out[i] = 0
		}
	}
	dx = make([]float64, len(dout))
	for i := range dx {
		if out[i] > 0 {
			dx[i] = dout[i]
		}
	}
	return out, dx
}

// TestReLUMatchesBranchyLoops checks the branch-free ReLU bit for bit
// against the branchy loops on every pair of special input and special
// upstream gradient, with and without an arena whose overwrite-only
// handouts arrive NaN-filled.
func TestReLUMatchesBranchyLoops(t *testing.T) {
	k := len(reluSpecials)
	x, dout := tensor.New(k*k), tensor.New(k*k)
	for i, v := range reluSpecials {
		for j, g := range reluSpecials {
			x.Data()[i*k+j], dout.Data()[i*k+j] = v, g
		}
	}
	wantOut, wantDX := branchyReLU(x.Data(), dout.Data())
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %x, want %x (input %v)", what, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]), x.Data()[i])
			}
		}
	}
	for _, arena := range []bool{false, true} {
		r := NewReLU()
		if arena {
			old := tensor.PoolingEnabled()
			tensor.SetPooling(true)
			tensor.SetUninitPoison(true)
			a := tensor.NewArena()
			InstallArena(r, a)
			defer func() {
				a.Release()
				tensor.SetUninitPoison(false)
				tensor.SetPooling(old)
			}()
		}
		same("infer", r.Forward(x, false).Data(), wantOut)
		same("out", r.Forward(x, true).Data(), wantOut)
		same("dx", r.Backward(dout).Data(), wantDX)
	}
}

// skipNet builds a small conv network from a fixed seed: the first layer
// is the raw-input Conv2D that SkipInputGrad marks.
func skipNet() *Sequential {
	rng := xrand.New(21)
	return NewSequential(
		NewConv2D("c1", 3, 4, 3, 1, 1, rng),
		NewReLU(),
		NewConv2D("c2", 4, 2, 3, 2, 1, rng),
		NewFlatten(),
		NewDense("fc", 2*3*3, 3, rng),
	)
}

// TestSkipInputGrad checks that a marked first conv returns a nil input
// gradient while every parameter gradient stays bit-identical to the
// unmarked network's, and that an unmarked or standalone Conv2D and a
// network without a leading Conv2D keep returning dx.
func TestSkipInputGrad(t *testing.T) {
	x := randInput(22, 2, 3, 6, 6)
	dout := randInput(23, 2, 3)
	plain, marked := skipNet(), skipNet()
	marked.SkipInputGrad()
	plain.Forward(x, true)
	marked.Forward(x, true)
	if dx := plain.Backward(dout); dx == nil || !dx.SameShape(x) {
		t.Fatalf("unmarked network input gradient = %v, want shape %v", dx, x.Shape())
	}
	if dx := marked.Backward(dout); dx != nil {
		t.Fatalf("marked network returned an input gradient %v", dx.Shape())
	}
	pp, mp := plain.Params(), marked.Params()
	for i := range pp {
		for j, g := range pp[i].Grad.Data() {
			if math.Float64bits(mp[i].Grad.Data()[j]) != math.Float64bits(g) {
				t.Fatalf("%s grad[%d]: marked %v, unmarked %v", pp[i].Name, j, mp[i].Grad.Data()[j], g)
			}
		}
	}

	conv := NewConv2D("solo", 3, 2, 3, 1, 1, xrand.New(24))
	y := conv.Forward(x, true)
	if dx := conv.Backward(randInput(25, y.Shape()...)); dx == nil || !dx.SameShape(x) {
		t.Fatal("standalone Conv2D lost its input gradient")
	}
	dense := NewSequential(NewFlatten(), NewDense("fc", 3*6*6, 2, xrand.New(26)))
	dense.SkipInputGrad()
	dense.Forward(x, true)
	if dx := dense.Backward(randInput(27, 2, 2)); dx == nil {
		t.Fatal("network without a leading Conv2D lost its input gradient")
	}
}
