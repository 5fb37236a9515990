package tensor

// AVX2ForTest reports whether the AVX2 row kernel was selected at init
// (or by SwapAVX2ForTest), without changing the selection.
func AVX2ForTest() bool { return useAVX2 }

// SwapAVX2ForTest sets the AVX2 row kernel selection to on and returns
// the previous selection. It exists for the external differential tests
// (gemm_models_test.go), which compare whole models with the kernel on
// and off; it is compiled only into this package's tests. Callers must
// check AVX2ForTest first: selecting the kernel on a CPU without AVX2
// faults.
func SwapAVX2ForTest(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}
