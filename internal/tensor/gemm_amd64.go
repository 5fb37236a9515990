package tensor

// useAVX2 selects the AVX2 row kernel for the float64 matrix products.
// It is probed once at init; tests switch it off to compare against the
// generic loops.
var useAVX2 = hasAVX2()

// gemmRowAVX2 is the AVX2 float64 row kernel (gemm_amd64.s): for every
// column c < w and p ascending in [0, k) it applies
// dst[c] = dst[c] + a[p*lda]*b[p*ldb+c] with a separate multiply and add,
// skipping no term. w must be a multiple of 4 and every addressed element
// in bounds; the Go drivers in gemm_avx2.go guarantee both.
//
//go:noescape
func gemmRowAVX2(dst, a, b *float64, k, lda, ldb, w int)

// anyBitsAVX2 reports whether some x[i], i < n, has bits&mask == want
// (gemm_amd64.s). n must be a multiple of 4.
//
//go:noescape
func anyBitsAVX2(x *float64, n int, mask, want uint64) bool

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM register state across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		osxsave = 1 << 27 // leaf 1 ECX: XGETBV is usable
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		xmmYmm  = 0b110   // XCR0: SSE and AVX state enabled
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
