package tensor

import "tdfm/internal/parallel"

// Generic compute kernels shared by the float64 tensor type and the F32
// inference storage variant. Each kernel is an exact structural copy of
// the original float64 loop — same cache blocking, same zero-skip, same
// ascending-index accumulation order, same sharding over disjoint
// output regions — so the float32 instantiation inherits the float64
// determinism guarantees at its own precision.
//
// The three matrix products are the exception on amd64 CPUs with AVX2:
// their float64 instantiations hand off to the drivers in gemm_avx2.go,
// which run a vector row kernel (gemm_amd64.s) instead of these loops.
// Those drivers are not structural copies. They keep the per-element
// contract the loops define: one multiply then one add per term (never a
// fused multiply-add) in ascending p. The kernel skips no zero, so gemm
// and gemmTransA use it only where the zero-skip here is unobservable.
// Results stay bit-identical to the loops here, which remain the float32
// path, the path on every other CPU, the path for operands that make the
// skip observable, and the differential-test reference (DESIGN.md §10,
// "Kernels").
//
// Every kernel's shard body lives in a named ...Range function and the
// kernel branches on parWorkers before building the shard closure: the
// serial path (small operands, or a single-worker cap) performs no
// closure allocation, which keeps the training loop's steady-state
// allocation count flat.
//
// Kernels that accumulate (gemm, gemmTransA, col2im, sumRows) require a
// zero-filled destination, exactly what New, NewPooled, GetBuf, and the
// zeroing Arena handouts return. The others (gemmTransB, im2col, the two
// layout conversions) overwrite every destination element, padding
// zeros included, so they may also take an overwrite-only Arena.Uninit
// handout (DESIGN.md §10).

// element constrains the storage scalar types the kernels support.
type element interface {
	~float32 | ~float64
}

// gemmRange applies the gemm row window [lo, hi).
func gemmRange[E element](dst, a, b []E, k, n, lo, hi int) {
	if k <= blockK && n <= blockN {
		// Small operands: the i-k-j loop order keeps the innermost
		// accesses sequential in both the output row and the right
		// operand row, which matters on tiny caches.
		for i := lo; i < hi; i++ {
			ti := a[i*k : (i+1)*k]
			oi := dst[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := ti[p]
				if av == 0 {
					continue
				}
				up := b[p*n : (p+1)*n]
				for j, bv := range up {
					oi[j] += av * bv
				}
			}
		}
		return
	}
	for p0 := 0; p0 < k; p0 += blockK {
		p1 := p0 + blockK
		if p1 > k {
			p1 = k
		}
		for j0 := 0; j0 < n; j0 += blockN {
			j1 := j0 + blockN
			if j1 > n {
				j1 = n
			}
			for i := lo; i < hi; i++ {
				ti := a[i*k : (i+1)*k]
				oi := dst[i*n+j0 : i*n+j1]
				for p := p0; p < p1; p++ {
					av := ti[p]
					if av == 0 {
						continue
					}
					up := b[p*n+j0 : p*n+j1]
					for j, bv := range up {
						oi[j] += av * bv
					}
				}
			}
		}
	}
}

// gemm computes dst += a × b for row-major a [m,k], b [k,n], dst [m,n],
// cache-blocked and sharded over output rows. dst must be zero-filled for
// a plain product.
func gemm[E element](dst, a, b []E, m, k, n int) {
	if d, ok := any(dst).([]float64); ok && useAVX2 && gemm64(d, any(a).([]float64), any(b).([]float64), m, k, n) {
		return
	}
	if w := parWorkers(m * k * n); w >= 2 {
		parallel.For(m, w, func(lo, hi int) { gemmRange(dst, a, b, k, n, lo, hi) })
		return
	}
	gemmRange(dst, a, b, k, n, 0, m)
}

// gemmTransARange applies the gemmTransA column window [jlo, jhi).
func gemmTransARange[E element](dst, a, b []E, k, m, n, jlo, jhi int) {
	for p := 0; p < k; p++ {
		tp := a[p*m : (p+1)*m]
		up := b[p*n+jlo : p*n+jhi]
		for i, av := range tp {
			if av == 0 {
				continue
			}
			oi := dst[i*n+jlo : i*n+jhi]
			for j, bv := range up {
				oi[j] += av * bv
			}
		}
	}
}

// gemmTransA computes dst += aᵀ × b for a [k,m], b [k,n], dst [m,n],
// sharded over output columns so each worker applies the full ascending-p
// accumulation to its own column window. dst must be zero-filled for a
// plain product.
func gemmTransA[E element](dst, a, b []E, k, m, n int) {
	if d, ok := any(dst).([]float64); ok && useAVX2 && gemmTransA64(d, any(a).([]float64), any(b).([]float64), k, m, n) {
		return
	}
	if w := parWorkers(k * m * n); w >= 2 {
		parallel.For(n, w, func(jlo, jhi int) { gemmTransARange(dst, a, b, k, m, n, jlo, jhi) })
		return
	}
	gemmTransARange(dst, a, b, k, m, n, 0, n)
}

// gemmTransBRange applies the gemmTransB row window [lo, hi).
func gemmTransBRange[E element](dst, a, b []E, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		ti := a[i*k : (i+1)*k]
		oi := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			uj := b[j*k : (j+1)*k]
			var s E
			for p, av := range ti {
				s += av * uj[p]
			}
			oi[j] = s
		}
	}
}

// gemmTransB computes dst = a × bᵀ for a [m,k], b [n,k], dst [m,n],
// sharded over output rows. Every destination element is overwritten.
func gemmTransB[E element](dst, a, b []E, m, k, n int) {
	if d, ok := any(dst).([]float64); ok && useAVX2 {
		gemmTransB64(d, any(a).([]float64), any(b).([]float64), m, k, n)
		return
	}
	if w := parWorkers(m * k * n); w >= 2 {
		parallel.For(m, w, func(lo, hi int) { gemmTransBRange(dst, a, b, k, n, lo, hi) })
		return
	}
	gemmTransBRange(dst, a, b, k, n, 0, m)
}

// kxWindow returns the kernel columns [lo, hi) whose input column
// ix0+kx lies inside a row of width w; lo == hi when none does.
func kxWindow(ix0, kw, w int) (lo, hi int) {
	lo = min(max(0, -ix0), kw)
	return lo, max(lo, min(kw, w-ix0))
}

// im2colRange unrolls the image window [imgLo, imgHi), writing every
// element of those rows: padded positions get explicit zeros. The valid
// kernel columns are found once per output position, so the copy of an
// interior window row carries no per-element bounds test.
func im2colRange[E element](dst, x []E, c, h, w, oh, ow, colStride int, g ConvGeom, imgLo, imgHi int) {
	kh, kw := g.KH, g.KW
	for img := imgLo; img < imgHi; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				lo, hi := kxWindow(ix0, kw, w)
				row := ((img*oh+oy)*ow + ox) * colStride
				d := dst[row : row+colStride]
				off := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						seg := d[off : off+kw]
						off += kw
						iy := iy0 + ky
						src := chBase + iy*w + ix0
						switch {
						case iy < 0 || iy >= h || lo == hi:
							clear(seg)
						case lo == 0 && hi == kw && kw == 3:
							// The model zoo's common case, unrolled.
							s := x[src : src+3 : src+3]
							seg = seg[:3]
							seg[0], seg[1], seg[2] = s[0], s[1], s[2]
						default:
							// Plain loops: clear and copy would call the
							// runtime for each short piece, which
							// BenchmarkIm2Col puts at 15–40% slower.
							for i := 0; i < lo; i++ {
								seg[i] = 0
							}
							in := seg[lo:hi]
							for i, v := range x[src+lo : src+lo+len(in)] {
								in[i] = v
							}
							for i := hi; i < kw; i++ {
								seg[i] = 0
							}
						}
					}
				}
			}
		}
	}
}

// im2colKernel unrolls x [n,c,h,w] into receptive-field rows
// [n*oh*ow, c*KH*KW], sharded by image. Every destination element is
// overwritten, padded positions with zeros.
func im2colKernel[E element](dst, x []E, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	if ww := parWorkers(n * oh * ow * colStride); ww >= 2 {
		parallel.For(n, ww, func(imgLo, imgHi int) {
			im2colRange(dst, x, c, h, w, oh, ow, colStride, g, imgLo, imgHi)
		})
		return
	}
	im2colRange(dst, x, c, h, w, oh, ow, colStride, g, 0, n)
}

// col2imRange scatters the image window [imgLo, imgHi). Each destination
// element receives its additions in the same (oy, ox, ch, ky, kx) order
// as a loop over every kernel column that skips the out-of-range ones.
func col2imRange[E element](dst, cols []E, c, h, w, oh, ow, colStride int, g ConvGeom, imgLo, imgHi int) {
	kh, kw := g.KH, g.KW
	for img := imgLo; img < imgHi; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				lo, hi := kxWindow(ix0, kw, w)
				if lo == hi {
					continue
				}
				row := ((img*oh+oy)*ow + ox) * colStride
				r := cols[row : row+colStride]
				off := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						seg := r[off+lo : off+hi]
						off += kw
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						out := dst[chBase+iy*w+ix0+lo:]
						out = out[:len(seg)]
						for i, v := range seg {
							out[i] += v
						}
					}
				}
			}
		}
	}
}

// col2imKernel scatters (accumulating on overlap) column rows back into a
// zero-filled [n,c,h,w] destination, sharded by image.
func col2imKernel[E element](dst, cols []E, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	if ww := parWorkers(n * oh * ow * colStride); ww >= 2 {
		parallel.For(n, ww, func(imgLo, imgHi int) {
			col2imRange(dst, cols, c, h, w, oh, ow, colStride, g, imgLo, imgHi)
		})
		return
	}
	col2imRange(dst, cols, c, h, w, oh, ow, colStride, g, 0, n)
}

// rowsToNCHWRange converts the image window [imgLo, imgHi).
func rowsToNCHWRange[E element](dst, rows []E, c, oh, ow, imgLo, imgHi int) {
	for img := imgLo; img < imgHi; img++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				row := ((img*oh+y)*ow + x) * c
				for ch := 0; ch < c; ch++ {
					dst[((img*c+ch)*oh+y)*ow+x] = rows[row+ch]
				}
			}
		}
	}
}

// rowsToNCHWKernel reinterprets position-major rows [n*oh*ow, c] as an
// [n,c,oh,ow] activation, sharded by image. Every destination element is
// overwritten.
func rowsToNCHWKernel[E element](dst, rows []E, n, c, oh, ow int) {
	if w := parWorkers(n * c * oh * ow); w >= 2 {
		parallel.For(n, w, func(imgLo, imgHi int) { rowsToNCHWRange(dst, rows, c, oh, ow, imgLo, imgHi) })
		return
	}
	rowsToNCHWRange(dst, rows, c, oh, ow, 0, n)
}

// nchwToRowsRange converts the image window [imgLo, imgHi).
func nchwToRowsRange[E element](dst, x []E, c, h, w, imgLo, imgHi int) {
	for img := imgLo; img < imgHi; img++ {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					dst[((img*h+y)*w+xx)*c+ch] = x[((img*c+ch)*h+y)*w+xx]
				}
			}
		}
	}
}

// nchwToRowsKernel converts [n,c,h,w] to position-major rows [n*h*w, c];
// the inverse of rowsToNCHWKernel. Every destination element is
// overwritten.
func nchwToRowsKernel[E element](dst, x []E, n, c, h, w int) {
	if ww := parWorkers(n * c * h * w); ww >= 2 {
		parallel.For(n, ww, func(imgLo, imgHi int) { nchwToRowsRange(dst, x, c, h, w, imgLo, imgHi) })
		return
	}
	nchwToRowsRange(dst, x, c, h, w, 0, n)
}

// addRowVector adds the [cols] vector v to every row of the [rows, cols]
// matrix m in place.
func addRowVector[E element](m, v []E, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := m[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v[c]
		}
	}
}

// sumRows accumulates the column sums of the [rows, cols] matrix m into
// dst, which must be zero-filled for a plain sum.
func sumRows[E element](dst, m []E, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := m[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c] += v
		}
	}
}
