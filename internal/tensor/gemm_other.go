//go:build !amd64

package tensor

// useAVX2 is false off amd64: the float64 products run the generic loops.
var useAVX2 = false

// gemmRowAVX2 exists off amd64 only so the shared drivers compile; with
// useAVX2 false it is never called.
func gemmRowAVX2(dst, a, b *float64, k, lda, ldb, w int) {
	panic("tensor: AVX2 row kernel called off amd64")
}

// anyBitsAVX2 is likewise never called off amd64.
func anyBitsAVX2(x *float64, n int, mask, want uint64) bool {
	panic("tensor: AVX2 bit scan called off amd64")
}
