package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"tdfm/internal/xrand"
)

func TestConvGeomOutSize(t *testing.T) {
	cases := []struct {
		g      ConvGeom
		h, w   int
		oh, ow int
	}{
		{ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 8, 8, 8, 8},
		{ConvGeom{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 8, 8, 4, 4},
		{ConvGeom{KH: 2, KW: 2, StrideH: 2, StrideW: 2}, 8, 8, 4, 4},
		{ConvGeom{KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 5, 7, 5, 7},
	}
	for i, c := range cases {
		oh, ow := c.g.OutSize(c.h, c.w)
		if oh != c.oh || ow != c.ow {
			t.Errorf("case %d: OutSize = (%d,%d), want (%d,%d)", i, oh, ow, c.oh, c.ow)
		}
	}
}

func TestSamePad(t *testing.T) {
	if SamePad(3) != 1 || SamePad(1) != 0 || SamePad(5) != 2 {
		t.Fatal("SamePad wrong")
	}
}

// A 1×1 kernel with stride 1 makes Im2Col a pure layout change; verify it
// matches NCHWToRows.
func TestIm2ColIdentityKernel(t *testing.T) {
	rng := xrand.New(7)
	x := New(2, 3, 4, 4)
	rng.FillNormal(x.Data(), 0, 1)
	g := ConvGeom{KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	cols := Im2Col(x, g)
	rows := NCHWToRows(x)
	if !cols.Equal(rows, 1e-12) {
		t.Fatal("Im2Col with 1x1 kernel should equal NCHWToRows")
	}
}

// Hand-checked 3×3 convolution via Im2Col + MatMul on a tiny input.
func TestIm2ColConvolutionByHand(t *testing.T) {
	// Single 1-channel 3x3 image counting 1..9.
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	g := ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := Im2Col(x, g) // [9, 9]
	// Averaging kernel: all ones.
	w := Full(1, 9, 1)
	out := cols.MatMul(w) // [9,1], each = sum of 3x3 neighbourhood with zero pad
	// Centre output (position 1,1) sees the whole image: sum = 45.
	if got := out.At(4, 0); got != 45 {
		t.Fatalf("centre = %v, want 45", got)
	}
	// Corner (0,0) sees {1,2,4,5} = 12.
	if got := out.At(0, 0); got != 12 {
		t.Fatalf("corner = %v, want 12", got)
	}
}

// Col2Im must be the exact adjoint of Im2Col: <Im2Col(x), y> == <x, Col2Im(y)>.
// This is the property that makes convolution backprop correct.
func TestQuickCol2ImAdjoint(t *testing.T) {
	rng := xrand.New(11)
	f := func(seed uint64) bool {
		r := xrand.New(seed%997 + 1)
		n := 1 + r.IntN(2)
		c := 1 + r.IntN(3)
		h := 3 + r.IntN(4)
		w := 3 + r.IntN(4)
		k := 1 + 2*r.IntN(2) // 1 or 3
		stride := 1 + r.IntN(2)
		g := ConvGeom{KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: SamePad(k), PadW: SamePad(k)}
		oh, ow := g.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			return true
		}
		x := New(n, c, h, w)
		rng.FillNormal(x.Data(), 0, 1)
		y := New(n*oh*ow, c*k*k)
		rng.FillNormal(y.Data(), 0, 1)

		lhs := 0.0
		cols := Im2Col(x, g)
		for i, v := range cols.Data() {
			lhs += v * y.Data()[i]
		}
		rhs := 0.0
		back := Col2Im(y, n, c, h, w, g)
		for i, v := range back.Data() {
			rhs += v * x.Data()[i]
		}
		return absDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func absDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}

func TestRowsToNCHWRoundTrip(t *testing.T) {
	rng := xrand.New(13)
	x := New(2, 3, 4, 5)
	rng.FillNormal(x.Data(), 0, 1)
	rows := NCHWToRows(x)
	back := RowsToNCHW(rows, 2, 3, 4, 5)
	if !back.Equal(x, 0) {
		t.Fatal("RowsToNCHW(NCHWToRows(x)) != x")
	}
}

func TestIm2ColBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 2-d input")
		}
	}()
	Im2Col(New(3, 3), ConvGeom{KH: 1, KW: 1, StrideH: 1, StrideW: 1})
}

func TestConvGeomValidatePanicsOnEmptyOutput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized kernel")
		}
	}()
	ConvGeom{KH: 9, KW: 9, StrideH: 1, StrideW: 1}.Validate(3, 3)
}

// refIm2Col and refCol2Im are the kernels as first written: one bounds
// test per kernel column, and im2col leaving padded positions untouched
// in a zero-filled destination.
func refIm2Col(dst, x []float64, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := ((img*oh+oy)*ow + ox) * colStride
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.StrideH - g.PadH + ky
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.StrideW - g.PadW + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							dst[row+(ch*g.KH+ky)*g.KW+kx] = x[((img*c+ch)*h+iy)*w+ix]
						}
					}
				}
			}
		}
	}
}

func refCol2Im(dst, cols []float64, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := ((img*oh+oy)*ow + ox) * colStride
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.StrideH - g.PadH + ky
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.StrideW - g.PadW + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							dst[((img*c+ch)*h+iy)*w+ix] += cols[row+(ch*g.KH+ky)*g.KW+kx]
						}
					}
				}
			}
		}
	}
}

// TestIm2ColCol2ImMatchReference checks the windowed kernels bit for bit
// against the reference loops, including padding as wide as the kernel
// and non-square strides. im2col writes into a NaN-filled destination,
// so a padded position it failed to zero would show.
func TestIm2ColCol2ImMatchReference(t *testing.T) {
	rng := xrand.New(31)
	geoms := []ConvGeom{
		{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 0, PadW: 0},
		{KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{KH: 2, KW: 3, StrideH: 1, StrideW: 3, PadH: 3, PadW: 4},
		{KH: 1, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 4},
	}
	const n, c, h, w = 3, 2, 5, 6
	for _, g := range geoms {
		oh, ow := g.OutSize(h, w)
		x := make([]float64, n*c*h*w)
		rng.FillNormal(x, 0, 1)
		want := make([]float64, n*oh*ow*c*g.KH*g.KW)
		refIm2Col(want, x, n, c, h, w, g)
		got := make([]float64, len(want))
		for i := range got {
			got[i] = math.NaN()
		}
		im2colKernel(got, x, n, c, h, w, g)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: im2col[%d] = %v, want %v", g, i, got[i], want[i])
			}
		}

		cols := make([]float64, len(want))
		rng.FillNormal(cols, 0, 1)
		wantX, gotX := make([]float64, len(x)), make([]float64, len(x))
		refCol2Im(wantX, cols, n, c, h, w, g)
		col2imKernel(gotX, cols, n, c, h, w, g)
		for i := range wantX {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("%+v: col2im[%d] = %v, want %v", g, i, gotX[i], wantX[i])
			}
		}
	}
}
