package tensor

import (
	"math"

	"tdfm/internal/parallel"
)

// Float64 drivers for the three matrix products over the AVX2 row kernel
// (DESIGN.md §10, "Kernels"). gemm, gemmTransA and gemmTransB hand their
// float64 instantiations here when useAVX2 is set. Each driver keeps its
// generic loop's sharding (disjoint output rows or column windows) and,
// per output element, the same ascending-p multiply-then-add sequence, so
// results are bit-identical to kernels.go at any worker count. The kernel
// adds every term; gemm and gemmTransA, whose generic loops skip zero
// entries of a, use it only when that skip is unobservable (skipInert)
// and otherwise report false so the generic loop runs.

// skipInert reports whether skipping the zero entries of a leaves a
// product that accumulates a·b into dst unchanged. Skipping a zero a[p]
// differs from adding its product a[p]·b only when that product is not ±0
// (b holds Inf or NaN) or when the accumulator is −0: x + ±0 is x for
// every other x, and a sum that starts anywhere but −0 never reaches −0.
func skipInert(b, dst []float64) bool {
	const expBits, negZero = 0x7ff0000000000000, 1 << 63
	return !anyBits(b, expBits, expBits) && !anyBits(dst, ^uint64(0), negZero)
}

// anyBits reports whether some element of x has bits&mask == want.
func anyBits(x []float64, mask, want uint64) bool {
	n4 := len(x) &^ 3
	if n4 > 0 && anyBitsAVX2(&x[0], n4, mask, want) {
		return true
	}
	for _, v := range x[n4:] {
		if math.Float64bits(v)&mask == want {
			return true
		}
	}
	return false
}

// gemm64 is gemm for float64 through the row kernel with lda = 1. It
// reports false, leaving dst untouched, when the zero-skip is observable.
func gemm64(dst, a, b []float64, m, k, n int) bool {
	if m == 0 || k == 0 || n == 0 {
		return true
	}
	_, _, _ = dst[m*n-1], a[m*k-1], b[k*n-1]
	if !skipInert(b[:k*n], dst[:m*n]) {
		return false
	}
	if w := parWorkers(m * k * n); w >= 2 {
		parallel.For(m, w, func(lo, hi int) { gemm64Range(dst, a, b, k, n, lo, hi) })
		return true
	}
	gemm64Range(dst, a, b, k, n, 0, m)
	return true
}

// gemm64Range applies the gemm64 row window [lo, hi).
func gemm64Range(dst, a, b []float64, k, n, lo, hi int) {
	n4 := n &^ 3
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		oi := dst[i*n : (i+1)*n]
		if n4 > 0 {
			gemmRowAVX2(&oi[0], &ai[0], &b[0], k, 1, n, n4)
		}
		for j := n4; j < n; j++ {
			for p, av := range ai {
				if av == 0 {
					continue
				}
				oi[j] += av * b[p*n+j]
			}
		}
	}
}

// gemmTransA64 is gemmTransA for float64 through the row kernel: each
// column shard walks its output rows i-outer, feeding column i of a with
// stride lda = m, so every element still accumulates in ascending p. It
// reports false, leaving dst untouched, when the zero-skip is observable.
func gemmTransA64(dst, a, b []float64, k, m, n int) bool {
	if m == 0 || k == 0 || n == 0 {
		return true
	}
	_, _, _ = dst[m*n-1], a[k*m-1], b[k*n-1]
	if !skipInert(b[:k*n], dst[:m*n]) {
		return false
	}
	if w := parWorkers(k * m * n); w >= 2 {
		parallel.For(n, w, func(jlo, jhi int) { gemmTransA64Range(dst, a, b, k, m, n, jlo, jhi) })
		return true
	}
	gemmTransA64Range(dst, a, b, k, m, n, 0, n)
	return true
}

// gemmTransA64Range applies the gemmTransA64 column window [jlo, jhi);
// a tail narrower than 4 columns runs the generic window loop.
func gemmTransA64Range(dst, a, b []float64, k, m, n, jlo, jhi int) {
	w4 := (jhi - jlo) &^ 3
	if w4 > 0 {
		for i := 0; i < m; i++ {
			gemmRowAVX2(&dst[i*n+jlo], &a[i], &b[jlo], k, m, n, w4)
		}
	}
	if jlo+w4 < jhi {
		gemmTransARange(dst, a, b, k, m, n, jlo+w4, jhi)
	}
}

// gemmTransB64 is gemmTransB for float64 through the row kernel. It packs
// bᵀ into a pooled [k, n rounded up to 4] buffer whose padding columns
// stay zero, then zeroes each output row and accumulates into it, which
// reproduces the generic loop's `var s E` start and overwrite semantics. A column tail narrower than 4 runs as
// one padded vector into a scratch row; only its real columns are kept.
func gemmTransB64(dst, a, b []float64, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst[:m*n])
		return
	}
	_, _, _ = dst[m*n-1], a[m*k-1], b[n*k-1]
	ldb := (n + 3) &^ 3
	bt := GetBuf(k * ldb)
	for j := 0; j < n; j++ {
		for p, v := range b[j*k : (j+1)*k] {
			bt[p*ldb+j] = v
		}
	}
	gemmTransB64Packed(dst, a, bt, m, k, n)
	PutBuf(bt)
}

// gemmTransB64Packed shards gemmTransB64 over output rows; bt is the
// zero-padded packed bᵀ.
func gemmTransB64Packed(dst, a, bt []float64, m, k, n int) {
	if w := parWorkers(m * k * n); w >= 2 {
		parallel.For(m, w, func(lo, hi int) { gemmTransB64Range(dst, a, bt, k, n, lo, hi) })
		return
	}
	gemmTransB64Range(dst, a, bt, k, n, 0, m)
}

// gemmTransB64Range applies the gemmTransB64 row window [lo, hi).
func gemmTransB64Range(dst, a, bt []float64, k, n, lo, hi int) {
	n4, ldb := n&^3, (n+3)&^3
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		oi := dst[i*n : (i+1)*n]
		if n4 > 0 {
			clear(oi[:n4])
			gemmRowAVX2(&oi[0], &ai[0], &bt[0], k, 1, ldb, n4)
		}
		if n4 < n {
			var tail [4]float64
			gemmRowAVX2(&tail[0], &ai[0], &bt[n4], k, 1, ldb, 4)
			copy(oi[n4:], tail[:])
		}
	}
}
