package tensor

// Benchmarks for the batch-first conv path: one Im2Col + one cache-blocked
// MatMul over a whole [N, C, H, W] batch versus the same work issued one
// example at a time. The gated TestEmitTensorBenchJSON runs them through
// testing.Benchmark and writes the measured trajectory to the path in
// TDFM_BENCH_OUT (the committed BENCH_tensor.json baseline; see `make
// bench-serve`). TDFM_BENCH_SHORT=1 trims the batch list for CI.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"tdfm/internal/xrand"
)

// convBenchGeom is the benchmark conv workload: 3→32 channels, 3×3
// same-pad kernel over 16×16 inputs — the shape class the model zoo's
// first conv layers run on the study datasets.
var convBenchGeom = ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

const (
	convBenchC    = 3
	convBenchHW   = 16
	convBenchOutC = 32
)

// convBenchInput builds a deterministic [n, C, H, W] batch and the conv
// weight matrix shaped for Im2Col output.
func convBenchInput(n int) (*Tensor, *Tensor) {
	rng := xrand.New(11).Split("bench-conv")
	x := New(n, convBenchC, convBenchHW, convBenchHW)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64() - 0.5
	}
	w := New(convBenchC*convBenchGeom.KH*convBenchGeom.KW, convBenchOutC)
	for i := range w.Data() {
		w.Data()[i] = rng.Float64() - 0.5
	}
	return x, w
}

// convBatched is one batched conv: a single Im2Col over all n images and
// one blocked MatMul.
func convBatched(x, w *Tensor) *Tensor {
	return Im2Col(x, convBenchGeom).MatMul(w)
}

// convPerExample issues the identical arithmetic one image at a time —
// the shape of work a per-request serving path generates.
func convPerExample(x, w *Tensor) []*Tensor {
	n := x.Dim(0)
	out := make([]*Tensor, n)
	for i := 0; i < n; i++ {
		out[i] = Im2Col(x.SliceRows(i, i+1), convBenchGeom).MatMul(w)
	}
	return out
}

// convBatchedPooled is convBatched with pool-owned storage: the column
// matrix and the product come from NewPooled and return via Release, so
// steady-state iterations recycle buffers instead of allocating. With
// pooling disabled it degenerates to exactly the allocate-per-call path,
// which is what the alloc benchmark's unpooled leg measures.
func convBatchedPooled(x, w *Tensor) {
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := convBenchGeom.OutSize(h, wd)
	cols := NewPooled(n*oh*ow, convBenchC*convBenchGeom.KH*convBenchGeom.KW)
	out := NewPooled(n*oh*ow, convBenchOutC)
	Im2ColInto(cols, x, convBenchGeom)
	cols.MatMulInto(out, w)
	cols.Release()
	out.Release()
}

// convBatchedF32 is the float32 flavour of convBatched, built from the
// inference-precision kernels. It allocates its outputs fresh each call so
// the B/op column directly reflects the storage-width saving over f64.
func convBatchedF32(x, w *F32) *F32 {
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := convBenchGeom.OutSize(h, wd)
	cols := NewF32(n*oh*ow, convBenchC*convBenchGeom.KH*convBenchGeom.KW)
	Im2ColF32Into(cols, x, convBenchGeom)
	return cols.MatMulInto(NewF32(n*oh*ow, convBenchOutC), w)
}

func benchConv(b *testing.B, n int, batched bool) {
	x, w := convBenchInput(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			convBatched(x, w)
		} else {
			convPerExample(x, w)
		}
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkConvIm2ColMatMul(b *testing.B) {
	for _, n := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("per-example/n=%d", n), func(b *testing.B) { benchConv(b, n, false) })
		b.Run(fmt.Sprintf("batched/n=%d", n), func(b *testing.B) { benchConv(b, n, true) })
	}
}

// benchAllocConv measures the batched conv through the pool-aware path
// with pooling forced on or off. One warm-up call primes the pool so the
// pooled leg reports its steady state rather than first-touch misses.
func benchAllocConv(b *testing.B, n int, pooled bool) {
	old := PoolingEnabled()
	SetPooling(pooled)
	defer SetPooling(old)
	x, w := convBenchInput(n)
	convBatchedPooled(x, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convBatchedPooled(x, w)
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "rows/s")
}

// benchConvPrecision measures the batched conv at the given storage width
// with pooling disabled on both sides, so the B/op delta isolates float32
// versus float64 storage rather than buffer reuse. Conversion of the
// inputs and weights happens once, outside the timer, matching how the
// serving layer converts an ensemble once at startup.
func benchConvPrecision(b *testing.B, n int, f32 bool) {
	old := PoolingEnabled()
	SetPooling(false)
	defer SetPooling(old)
	x, w := convBenchInput(n)
	if f32 {
		x32, w32 := F32FromTensor(x), F32FromTensor(w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			convBatchedF32(x32, w32)
		}
	} else {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			convBatched(x, w)
		}
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkAllocConv tracks the conv path's allocation rate with the
// buffer pool on versus off (run with -benchmem; the allocs/op and B/op
// columns are the point).
func BenchmarkAllocConv(b *testing.B) {
	b.Run("pooled", func(b *testing.B) { benchAllocConv(b, 32, true) })
	b.Run("unpooled", func(b *testing.B) { benchAllocConv(b, 32, false) })
}

// BenchmarkConvPrecision compares the f64 and f32 conv kernels at equal
// geometry (run with -benchmem; f32 should roughly halve B/op).
func BenchmarkConvPrecision(b *testing.B) {
	b.Run("f64", func(b *testing.B) { benchConvPrecision(b, 32, false) })
	b.Run("f32", func(b *testing.B) { benchConvPrecision(b, 32, true) })
}

// benchRecord is one measured configuration in a BENCH_*.json trajectory.
type benchRecord struct {
	Name       string  `json:"name"`
	Rows       int     `json:"rows"`
	NsPerRow   float64 `json:"ns_per_row"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// Memory columns, filled only by measureAlloc (per benchmark op, not
	// per row, mirroring -benchmem).
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
}

// gemmBenchShape is one matrix product of the convnet training step
// (tiny scale, batch 32, 12×12 input) in the operand order of its
// kernel: gemm (m, k, n), gemmTransA (k, m, n), gemmTransB (m, k, n).
type gemmBenchShape struct {
	op, layer string
	d         [3]int
}

// gemmBenchShapes are conv1/conv2 forward, their weight gradients, their
// input gradients, and the first dense layer's three products.
var gemmBenchShapes = []gemmBenchShape{
	{"gemm", "conv1", [3]int{4608, 27, 8}},
	{"gemm", "conv2", [3]int{1152, 72, 16}},
	{"gemm", "fc1", [3]int{32, 144, 48}},
	{"gemmTransA", "conv1", [3]int{4608, 27, 8}},
	{"gemmTransA", "conv2", [3]int{1152, 72, 16}},
	{"gemmTransA", "fc1", [3]int{32, 144, 48}},
	{"gemmTransB", "conv1", [3]int{4608, 8, 27}},
	{"gemmTransB", "conv2", [3]int{1152, 16, 72}},
	{"gemmTransB", "fc1", [3]int{32, 48, 144}},
}

// macs is the shape's multiply-accumulate count.
func (s gemmBenchShape) macs() int { return s.d[0] * s.d[1] * s.d[2] }

// benchGemm times one product serially with the AVX2 row kernel on or
// off. The left operand is 30% zeros, like a post-ReLU activation.
func benchGemm(b *testing.B, s gemmBenchShape, avx2 bool) {
	if avx2 && !useAVX2 {
		b.Skip("AVX2 row kernel not selected on this CPU")
	}
	SetParallelism(1)
	defer SetParallelism(0)
	rng := xrand.New(3).Split("gemm-bench")
	x, y, z := s.d[0], s.d[1], s.d[2]
	rSize, dSize := y*z, x*z
	if s.op == "gemmTransA" { // a [k, m], b [k, n], dst [m, n]
		rSize, dSize = x*z, y*z
	}
	l := diffOperand(rng, x*y, 0, 0.3, 0)
	r := diffOperand(rng, rSize, 0, 0, 0)
	dst := make([]float64, dSize)
	defer SwapAVX2ForTest(SwapAVX2ForTest(avx2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch s.op {
		case "gemm":
			gemm(dst, l, r, x, y, z)
		case "gemmTransA":
			gemmTransA(dst, l, r, x, y, z)
		case "gemmTransB":
			gemmTransB(dst, l, r, x, y, z)
		}
	}
}

// convBenchShape is one conv layer of the convnet training step (tiny
// scale, batch 32, 3×12×12 input): its [N, C, H, W] input, under
// convBenchGeom's 3×3, stride-1, same-padded kernel.
type convBenchShape struct {
	layer      string
	n, c, h, w int
}

// convBenchShapes are convnet's conv1–conv3 at their training shapes.
var convBenchShapes = []convBenchShape{
	{"conv1", 32, 3, 12, 12},
	{"conv2", 32, 8, 6, 6},
	{"conv3", 32, 16, 3, 3},
}

// colsLen is the element count of the shape's im2col matrix.
func (s convBenchShape) colsLen() int {
	oh, ow := convBenchGeom.OutSize(s.h, s.w)
	return s.n * oh * ow * s.c * convBenchGeom.KH * convBenchGeom.KW
}

// benchIm2Col times one im2col (or, with back set, one col2im) at the
// shape serially. Both write into a reused destination: im2col
// overwrites it, col2im accumulates into it, as in a training step.
func benchIm2Col(b *testing.B, s convBenchShape, back bool) {
	SetParallelism(1)
	defer SetParallelism(0)
	rng := xrand.New(5).Split("im2col-bench")
	g := convBenchGeom
	x := make([]float64, s.n*s.c*s.h*s.w)
	cols := make([]float64, s.colsLen())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(cols, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if back {
			col2imKernel(x, cols, s.n, s.c, s.h, s.w, g)
		} else {
			im2colKernel(cols, x, s.n, s.c, s.h, s.w, g)
		}
	}
}

// BenchmarkIm2Col times im2col and col2im at the convnet training
// shapes.
func BenchmarkIm2Col(b *testing.B) {
	for _, s := range convBenchShapes {
		b.Run("im2col/"+s.layer, func(b *testing.B) { benchIm2Col(b, s, false) })
		b.Run("col2im/"+s.layer, func(b *testing.B) { benchIm2Col(b, s, true) })
	}
}

// BenchmarkGemm compares the three products with the AVX2 row kernel on
// and off at the convnet training shapes.
func BenchmarkGemm(b *testing.B) {
	for _, s := range gemmBenchShapes {
		for _, avx2 := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/%s/avx2=%v", s.op, s.layer, avx2), func(b *testing.B) {
				benchGemm(b, s, avx2)
				b.ReportMetric(float64(s.macs())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

// benchHost identifies the measuring machine for the committed rows.
func benchHost() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	amd64 := "unset"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" {
				amd64 = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q NumCPU=%d GOAMD64=%s avx2=%v", model, runtime.NumCPU(), amd64, useAVX2)
}

// benchFile is the committed benchmark baseline format shared by
// BENCH_tensor.json and BENCH_serve.json.
type benchFile struct {
	Suite      string             `json:"suite"`
	Go         string             `json:"go"`
	Host       string             `json:"host,omitempty"`
	MaxProcs   int                `json:"maxprocs"`
	Benchmarks []benchRecord      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

// writeBenchFile marshals f to path with a trailing newline.
func writeBenchFile(path string, f benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchReps is how many times each record reruns testing.Benchmark; the
// fastest repetition is kept. On a shared single-core host the slower
// repetitions measure scheduler interference, not the code, and the
// committed baseline should measure the code.
const benchReps = 3

// bestOf returns the fastest of benchReps testing.Benchmark runs of fn.
func bestOf(fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < benchReps; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// measureRows runs fn through bestOf and converts the result to a
// per-row record, where each fn iteration processes rows rows.
func measureRows(name string, rows int, fn func(b *testing.B)) benchRecord {
	r := bestOf(fn)
	perRow := float64(r.T.Nanoseconds()) / float64(r.N*rows)
	return benchRecord{
		Name:       name,
		Rows:       rows,
		NsPerRow:   perRow,
		RowsPerSec: 1e9 / perRow,
	}
}

// measureAlloc is measureRows with the -benchmem columns attached: fn runs
// with allocation tracking and the record carries allocs/op and B/op.
func measureAlloc(name string, rows int, fn func(b *testing.B)) benchRecord {
	r := bestOf(func(b *testing.B) { b.ReportAllocs(); fn(b) })
	perRow := float64(r.T.Nanoseconds()) / float64(r.N*rows)
	return benchRecord{
		Name:        name,
		Rows:        rows,
		NsPerRow:    perRow,
		RowsPerSec:  1e9 / perRow,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// ratio returns a/b guarding against a zero denominator (a perfectly
// allocation-free pooled leg would otherwise divide by zero).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// TestEmitTensorBenchJSON measures the per-example versus batched conv
// trajectory and writes it to TDFM_BENCH_OUT. Gated: without the env var
// the test skips, so the ordinary test run never spends benchmark time.
func TestEmitTensorBenchJSON(t *testing.T) {
	out := os.Getenv("TDFM_BENCH_OUT")
	if out == "" {
		t.Skip("TDFM_BENCH_OUT not set")
	}
	sizes := []int{1, 8, 32, 128}
	if os.Getenv("TDFM_BENCH_SHORT") != "" {
		sizes = []int{1, 32}
	}
	f := benchFile{
		Suite:    "tensor-conv",
		Go:       runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		Host:     benchHost(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Speedups: map[string]float64{},
	}
	perRow := map[string]float64{}
	for _, n := range sizes {
		n := n
		single := measureRows(fmt.Sprintf("conv/per-example/n=%d", n), n,
			func(b *testing.B) { benchConv(b, n, false) })
		batched := measureRows(fmt.Sprintf("conv/batched/n=%d", n), n,
			func(b *testing.B) { benchConv(b, n, true) })
		f.Benchmarks = append(f.Benchmarks, single, batched)
		perRow[single.Name], perRow[batched.Name] = single.NsPerRow, batched.NsPerRow
		f.Speedups[fmt.Sprintf("batched_vs_per_example_n%d", n)] =
			single.NsPerRow / batched.NsPerRow
	}

	// Memory rows: pool on/off through the same code path, then f64
	// versus f32 kernels with pooling off on both sides.
	const allocN = 32
	pooled := measureAlloc(fmt.Sprintf("alloc/conv/pooled/n=%d", allocN), allocN,
		func(b *testing.B) { benchAllocConv(b, allocN, true) })
	unpooled := measureAlloc(fmt.Sprintf("alloc/conv/unpooled/n=%d", allocN), allocN,
		func(b *testing.B) { benchAllocConv(b, allocN, false) })
	f64c := measureAlloc(fmt.Sprintf("conv/f64/n=%d", allocN), allocN,
		func(b *testing.B) { benchConvPrecision(b, allocN, false) })
	f32c := measureAlloc(fmt.Sprintf("conv/f32/n=%d", allocN), allocN,
		func(b *testing.B) { benchConvPrecision(b, allocN, true) })
	f.Benchmarks = append(f.Benchmarks, pooled, unpooled, f64c, f32c)
	f.Speedups[fmt.Sprintf("conv_allocs_unpooled_vs_pooled_n%d", allocN)] =
		ratio(unpooled.AllocsPerOp, pooled.AllocsPerOp)
	f.Speedups[fmt.Sprintf("conv_bytes_unpooled_vs_pooled_n%d", allocN)] =
		ratio(unpooled.BytesPerOp, pooled.BytesPerOp)
	f.Speedups[fmt.Sprintf("conv_bytes_f64_vs_f32_n%d", allocN)] =
		ratio(f64c.BytesPerOp, f32c.BytesPerOp)

	// GEMM rows: each product at the convnet training shapes, serial,
	// generic loops against the AVX2 row kernel. A row's "rows" are the
	// product's multiply-accumulates, so rows_per_sec reads as MAC/s.
	if useAVX2 {
		for _, s := range gemmBenchShapes {
			name := fmt.Sprintf("gemm/%s/%s", s.op, s.layer)
			generic := measureRows(name+"/generic", s.macs(), func(b *testing.B) { benchGemm(b, s, false) })
			avx2 := measureRows(name+"/avx2", s.macs(), func(b *testing.B) { benchGemm(b, s, true) })
			f.Benchmarks = append(f.Benchmarks, generic, avx2)
			f.Speedups[fmt.Sprintf("gemm_avx2_vs_generic_%s_%s", s.op, s.layer)] = generic.NsPerRow / avx2.NsPerRow
		}
	}

	// im2col/col2im rows: serial, at the convnet training shapes. A row's
	// "rows" are the elements of the column matrix.
	for _, s := range convBenchShapes {
		f.Benchmarks = append(f.Benchmarks,
			measureRows("im2col/"+s.layer, s.colsLen(), func(b *testing.B) { benchIm2Col(b, s, false) }),
			measureRows("col2im/"+s.layer, s.colsLen(), func(b *testing.B) { benchIm2Col(b, s, true) }))
	}

	if err := writeBenchFile(out, f); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d records)", out, len(f.Benchmarks))
}
