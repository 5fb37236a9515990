package nn

import (
	"fmt"
	"math"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// ReLU is the rectified-linear activation, applied elementwise.
type ReLU struct {
	arenaHolder
	// out caches the training-mode output: out[i] > 0 exactly where the
	// input was positive, so it doubles as the backward mask without a
	// separate allocation.
	out *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes non-positive elements. It selects by mask, not by
// branch: the element's bits survive unless v <= 0, else +0. That keeps
// −0 → +0 and every NaN bit for bit, sign included (Go's max(v, 0) would
// turn the negative default NaN of x86 arithmetic into a positive one).
func (r *ReLU) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := r.uninitLike(x)
	xd := x.Data()
	od := out.Data()[:len(xd)]
	for i, v := range xd {
		var keep uint64
		if !(v <= 0) {
			keep = ^uint64(0)
		}
		od[i] = math.Float64frombits(math.Float64bits(v) & keep)
	}
	if training {
		r.out = out
	}
	return out
}

// Backward zeroes gradients where the forward input was non-positive.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.out == nil {
		panic("nn: ReLU Backward before training Forward")
	}
	dx := r.uninitLike(dout)
	dod := dout.Data()
	dxd, od := dx.Data()[:len(dod)], r.out.Data()[:len(dod)]
	for i, g := range dod {
		// The same mask select: g where the output was positive, else +0.
		var keep uint64
		if od[i] > 0 {
			keep = ^uint64(0)
		}
		dxd[i] = math.Float64frombits(math.Float64bits(g) & keep)
	}
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout randomly zeroes activations during training with probability Rate
// and rescales survivors by 1/(1-Rate) ("inverted dropout"), so inference
// needs no adjustment.
type Dropout struct {
	arenaHolder
	rate float64
	rng  *xrand.RNG
	mask []float64
}

var _ Layer = (*Dropout)(nil)

// NewDropout returns a dropout layer with the given drop probability,
// drawing masks from rng. Rate must lie in [0, 1).
func NewDropout(rate float64, rng *xrand.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: NewDropout rate %v out of [0,1)", rate))
	}
	return &Dropout{rate: rate, rng: rng}
}

// Forward applies a fresh mask when training; it is the identity otherwise.
func (d *Dropout) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training || d.rate == 0 {
		d.mask = nil
		return x
	}
	out := d.allocLike(x)
	od := out.Data()
	copy(od, x.Data())
	mask := d.allocBuf(len(od))
	keep := 1 - d.rate
	scale := 1 / keep
	for i := range od {
		if d.rng.Float64() < keep {
			mask[i] = scale
			od[i] *= scale
		} else {
			od[i] = 0
		}
	}
	d.mask = mask
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		// Dropout was an identity in Forward (rate 0); pass through.
		return dout
	}
	dx := d.allocLike(dout)
	dxd, dod := dx.Data(), dout.Data()
	for i := range dxd {
		dxd[i] = dod[i] * d.mask[i]
	}
	return dx
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Flatten reshapes [N, C, H, W] activations to [N, C*H*W] for the dense
// head of a convolutional network.
type Flatten struct {
	inShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if training {
		f.inShape = x.Shape()
	}
	n := x.Dim(0)
	return x.Reshape(n, -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten Backward before training Forward")
	}
	return dout.Reshape(f.inShape...)
}

// Params returns nil; flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
