package tensor

import (
	"fmt"
	"math"
	"testing"

	"tdfm/internal/xrand"
)

// withAVX2 runs body with the AVX2 row kernel selected (on) or the
// generic loops (off), restoring the probed selection afterwards.
func withAVX2(on bool, body func()) {
	defer SwapAVX2ForTest(SwapAVX2ForTest(on))
	body()
}

// specials are the operand values the row kernel must treat exactly as
// the generic loops do: signed zeros (the skip compares −0 equal to 0),
// infinities and NaN (0·Inf must be skipped, not added), subnormals, and
// magnitudes whose products overflow.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	4.9e-324, -2.2e-310, 1e308, -1e308, 1, -1,
}

// diffOperand fills a fresh backing array of n+off elements and returns
// the window starting at the odd-or-even offset off. Values are mostly
// normal draws, with zeros and specials mixed in at the given rates.
func diffOperand(rng *xrand.RNG, n, off int, zeroFrac, specialFrac float64) []float64 {
	buf := make([]float64, n+off+3)
	for i := range buf {
		switch u := rng.Float64(); {
		case u < zeroFrac:
			buf[i] = 0
		case u < zeroFrac+specialFrac:
			buf[i] = specials[rng.IntN(len(specials))]
		default:
			buf[i] = rng.NormFloat64()
		}
	}
	return buf[off : off+n]
}

// sameBits reports whether two results agree bit for bit, treating any
// two NaNs as equal (the payload of a NaN sum depends on operand order).
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// assertSameBits fails on the first element where the kernel result got
// differs from the generic reference want.
func assertSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), generic %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// diffDim draws a dimension that is 0 or 1 some of the time, below the
// 4-wide vector some more, and otherwise up to max (odd widths included).
func diffDim(rng *xrand.RNG, max int) int {
	switch rng.IntN(6) {
	case 0:
		return rng.IntN(2)
	case 1:
		return 2 + rng.IntN(3)
	default:
		return rng.IntN(max + 1)
	}
}

// TestGemmAVX2MatchesGeneric is the kernel-level differential test: about
// 3000 random shapes per product, operands salted with signed zeros,
// infinities, NaN, subnormals and 1e308 at odd sub-slice offsets, and
// destinations pre-filled the same way (gemm and gemmTransA accumulate
// into dst; gemmTransB must overwrite it). The kernel and the generic
// loops must agree bit for bit on every element. Half the shapes salt b
// and dst with finite specials and +0 only, where gemm and gemmTransA run
// the kernel; the rest may hold Inf, NaN or −0 there, where they must
// fall back to the generic loop.
func TestGemmAVX2MatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 row kernel not selected on this CPU")
	}
	rng := xrand.New(2022).Split("gemm-avx2-diff")
	const shapes = 3000
	kernelShapes := 0
	for it := 0; it < shapes; it++ {
		m, k, n := diffDim(rng, 9), diffDim(rng, 70), diffDim(rng, 75)
		zeroFrac := []float64{0, 0.1, 0.5, 1}[rng.IntN(4)]
		specialFrac := []float64{0, 0.02, 0.2}[rng.IntN(3)]
		finite := rng.IntN(2) == 0
		offs := func() int { return rng.IntN(4) }
		a := diffOperand(rng, m*k, offs(), zeroFrac, specialFrac)
		b := diffOperand(rng, k*n, offs(), zeroFrac, specialFrac)
		d0 := diffOperand(rng, m*n, offs(), 0.3, specialFrac)
		if finite {
			inertSpecials(rng, b)
			inertSpecials(rng, d0)
		}
		inert := skipInert(b, d0)
		if finite && !inert {
			t.Fatalf("shape #%d: finite b and dst without −0 not taken as inert", it)
		}
		if inert && m*k*n > 0 {
			kernelShapes++
		}

		run := func(on bool, op func(dst []float64)) []float64 {
			dst := append([]float64(nil), d0...)
			withAVX2(on, func() { op(dst) })
			return dst
		}
		check := func(name string, op func(dst []float64)) {
			t.Helper()
			label := name + shapeLabel(it, m, k, n)
			assertSameBits(t, label, run(true, op), run(false, op))
		}

		check("gemm", func(dst []float64) { gemm(dst, a, b, m, k, n) })
		// a doubles as the [k, m] operand of gemmTransA.
		check("gemmTransA", func(dst []float64) { gemmTransA(dst, a, b, k, m, n) })
		// b doubles as the [n, k] operand of gemmTransB.
		check("gemmTransB", func(dst []float64) { gemmTransB(dst, a, b, m, k, n) })

		// A random column window, as one gemmTransA shard applies it.
		if inert && n > 0 && m > 0 && k > 0 {
			jlo := rng.IntN(n)
			jhi := jlo + 1 + rng.IntN(n-jlo)
			got := run(true, func(dst []float64) { gemmTransA64Range(dst, a, b, k, m, n, jlo, jhi) })
			want := run(false, func(dst []float64) { gemmTransARange(dst, a, b, k, m, n, jlo, jhi) })
			assertSameBits(t, "gemmTransA window"+shapeLabel(it, m, k, n), got, want)
		}
	}
	if kernelShapes < shapes/3 {
		t.Fatalf("gemm and gemmTransA ran the kernel on only %d of %d shapes", kernelShapes, shapes)
	}
}

// inertSpecials replaces every Inf, NaN and −0 in x with a finite special
// or +0, keeping x's zeros, subnormals and 1e308 magnitudes.
func inertSpecials(rng *xrand.RNG, x []float64) {
	finite := []float64{0, 4.9e-324, -2.2e-310, 1e308, -1e308}
	for i, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) || math.Signbit(v) && v == 0 {
			x[i] = finite[rng.IntN(len(finite))]
		}
	}
}

// TestSkipInertSeesEveryElement puts one Inf, NaN or −0 at each position
// of short operands: skipInert must see it whether the vector bit scan or
// the scalar tail covers that position, and must pass finite specials.
func TestSkipInertSeesEveryElement(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 row kernel not selected on this CPU")
	}
	for n := 1; n <= 9; n++ {
		for i := 0; i < n; i++ {
			for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				b := make([]float64, n)
				b[i] = v
				if skipInert(b, nil) {
					t.Errorf("n=%d: b[%d] = %v not seen", n, i, v)
				}
			}
			d := make([]float64, n)
			d[i] = math.Copysign(0, -1)
			if skipInert(nil, d) {
				t.Errorf("n=%d: dst[%d] = −0 not seen", n, i)
			}
		}
		finite := []float64{0, 4.9e-324, -2.2e-310, 1e308, -1e308, 1, -1, 0, 2}[:n]
		if !skipInert(finite, finite) {
			t.Errorf("n=%d: finite operands without −0 taken as observable", n)
		}
	}
}

// TestGemmAVX2ShardedMatchesGeneric repeats the differential check on
// operands large enough to shard, at several worker counts, so the
// kernel's row and column windows meet the generic loop's blocking.
func TestGemmAVX2ShardedMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 row kernel not selected on this CPU")
	}
	rng := xrand.New(7).Split("gemm-avx2-sharded")
	shapes := [][3]int{{67, 129, 37}, {33, 2*blockK + 5, blockN + 7}, {300, 27, 8}, {9, 513, 16}}
	for _, workers := range []int{1, 2, 3} {
		withParallelism(t, workers, func() {
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				a := diffOperand(rng, m*k, 1, 0.3, 0.01)
				b := diffOperand(rng, k*n, 3, 0.1, 0.01)
				inertSpecials(rng, b) // so gemm and gemmTransA run the kernel
				for name, op := range map[string]func(dst []float64){
					"gemm":       func(dst []float64) { gemm(dst, a, b, m, k, n) },
					"gemmTransA": func(dst []float64) { gemmTransA(dst, a, b, k, m, n) },
					"gemmTransB": func(dst []float64) { gemmTransB(dst, a, b, m, k, n) },
				} {
					got, want := make([]float64, m*n), make([]float64, m*n)
					withAVX2(true, func() { op(got) })
					withAVX2(false, func() { op(want) })
					assertSameBits(t, name+shapeLabel(workers, m, k, n), got, want)
				}
			}
		})
	}
}

// TestGemmAVX2NoAllocs pins the drivers' steady state: gemm and
// gemmTransA allocate nothing serially, and the gemmTransB pack buffer
// comes from the pool.
func TestGemmAVX2NoAllocs(t *testing.T) {
	if !useAVX2 || !PoolingEnabled() {
		t.Skip("needs the AVX2 row kernel and buffer pooling")
	}
	SetParallelism(1)
	defer SetParallelism(0)
	m, k, n := 16, 27, 18
	a, b, dst := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	for name, op := range map[string]func(){
		"gemm":       func() { gemm(dst, a, b, m, k, n) },
		"gemmTransA": func() { gemmTransA(dst, a, b, k, m, n) },
		"gemmTransB": func() { gemmTransB(dst, a, b[:n*k], m, k, n) },
	} {
		op() // warm the pool
		if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func shapeLabel(it, m, k, n int) string {
	return fmt.Sprintf(" #%d [m=%d k=%d n=%d]", it, m, k, n)
}
