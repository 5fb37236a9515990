package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// wireShapes are the Options.Input shapes FuzzPredictDecode decodes
// against, picked by the fuzzed shape byte. The last is unset, so every
// body must fail the way toTensor fails it.
var wireShapes = [][3]int{{1, 2, 2}, {1, 1, 1}, {2, 1, 3}, {0, 0, 0}}

// newWireServer builds a stub-member server that only decodes: the
// decode tests never call Predict.
func newWireServer(tb testing.TB, input [3]int) *Server {
	tb.Helper()
	s, err := New(fiveMembers(), 3, Options{Input: input})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// referenceDecode is the /predict decode without the fast path:
// encoding/json reads the stream into a PredictRequest and toTensor
// packs it. decodePredict must agree with it on every body.
func referenceDecode(s *Server, r io.Reader) (*tensor.Tensor, error) {
	var req PredictRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding body: %v", err)
	}
	return s.toTensor(req.Instances)
}

// sameDecode reports how two decode outcomes differ, or "" when they
// agree on accept or reject, the error text, the shape and every bit of
// the tensor.
func sameDecode(got *tensor.Tensor, gotErr error, want *tensor.Tensor, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, reference error %q", gotErr, wantErr)
		}
		return ""
	case fmt.Sprint(got.Shape()) != fmt.Sprint(want.Shape()):
		return fmt.Sprintf("shape %v, reference shape %v", got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(v) {
			return fmt.Sprintf("value %d is %v (%#x), reference %v (%#x)",
				i, g, math.Float64bits(g), v, math.Float64bits(v))
		}
	}
	return ""
}

// FuzzPredictDecode checks the /predict decode against the encoding/json
// reference path on arbitrary bodies: the same accept or reject, the
// identical error string, and the same shape with bit-equal values.
func FuzzPredictDecode(f *testing.F) {
	servers := make([]*Server, len(wireShapes))
	for i, in := range wireShapes {
		servers[i] = newWireServer(f, in)
	}
	f.Fuzz(func(t *testing.T, body []byte, shape uint8) {
		s := servers[int(shape)%len(servers)]
		got, gotErr := s.decodePredict(body, nil)
		want, wantErr := referenceDecode(s, bytes.NewReader(body))
		if diff := sameDecode(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("Input %v, body %q: %s", s.opts.Input, body, diff)
		}
	})
}

// TestDecodeCanonicalRouting checks which bodies the fast path takes and
// which it hands to the reference path: it must take every canonical
// body, so the speed-up holds, and leave every other one alone.
func TestDecodeCanonicalRouting(t *testing.T) {
	s := newWireServer(t, [3]int{1, 2, 2})
	for _, c := range []struct {
		body string
		fast bool
	}{
		{`{"instances":[[0,1,2,3]]}`, true},
		{" \t{\r\n\"instances\" : [ [ -0 , 1E+2 , 2.5e-3 , 3 ] , [4,5,6,7] ] }\n", true},
		{`{"instances":[[0,1,2,3]]}[[[[garbage`, true},
		{`{"instances":[[0,1,2,3]],"x":1}`, false},
		{`{"x":1,"instances":[[0,1,2,3]]}`, false},
		{`{"Instances":[[0,1,2,3]]}`, false},
		{`{"\u0069nstances":[[0,1,2,3]]}`, false},
		{`{"instances":[[0,1,2,3]],"instances":[[0,1,2,3]]}`, false},
		{`{"instances":null}`, false},
		{`{"instances":[[0,null,2,3]]}`, false},
		{`{"instances":[]}`, false},
		{`{"instances":[[0,1,2]]}`, false},
		{`{"instances":[[0,1,2,3,4]]}`, false},
		{`{"instances":[[1e400,1,2,3]]}`, false},
		{`{"instances":[[01,1,2,3]]}`, false},
		{`{"instances":[[0,1,2,3]]`, false},
	} {
		if got := s.decodeCanonical([]byte(c.body)) != nil; got != c.fast {
			t.Errorf("body %q: fast path %v, want %v", c.body, got, c.fast)
		}
	}
	if newWireServer(t, [3]int{}).decodeCanonical([]byte(`{"instances":[[0]]}`)) != nil {
		t.Error("fast path taken with Options.Input unset")
	}
	// Two bytes a value is denser than the first allocation assumes, so
	// the tensor has to grow; the dense-rows-grow seed checks the values.
	dense := `{"instances":[` + strings.Repeat(`[7],`, 99) + `[7]]}`
	if x := newWireServer(t, [3]int{1, 1, 1}).decodeCanonical([]byte(dense)); x == nil || x.Dim(0) != 100 {
		t.Errorf("100 dense one-value rows: fast path gave %v", x)
	}
}

// TestPredictDecodeReadError checks a body whose read fails partway:
// the reference decoder meets the error where the request stream raised
// it, so a value complete before it still decodes and a truncated one
// reports the read error.
func TestPredictDecodeReadError(t *testing.T) {
	s := newWireServer(t, [3]int{1, 2, 2})
	cause := errors.New("connection reset")
	for _, prefix := range []string{
		`{"instances":[[0,1,2,3]]}`,
		`{"instances":[[0,1,2,3]]} trailing`,
		`{"instances":[[0,1,`,
		``,
	} {
		stream := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(cause)) }
		body, readErr := readBody(stream(), -1)
		if !errors.Is(readErr, cause) || string(body) != prefix {
			t.Fatalf("readBody = %q, %v; want %q, %v", body, readErr, prefix, cause)
		}
		got, gotErr := s.decodePredict(body, readErr)
		want, wantErr := referenceDecode(s, stream())
		if diff := sameDecode(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("prefix %q: %s", prefix, diff)
		}
	}
}

// TestReadBodySizedFromContentLength checks that a body as long as its
// Content-Length reads into one buffer of that size, and that a wrong or
// missing length still reads every byte.
func TestReadBodySizedFromContentLength(t *testing.T) {
	body := strings.Repeat("0123456789", 1000)
	for _, size := range []int64{int64(len(body)), -1, 10, int64(len(body)) * 3} {
		got, err := readBody(strings.NewReader(body), size)
		if err != nil || string(got) != body {
			t.Fatalf("size %d: read %d bytes, %v; want %d", size, len(got), err, len(body))
		}
	}
	rd := strings.NewReader(body)
	half := iotest.HalfReader(rd) // several reads, as a socket delivers them
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if _, err := readBody(half, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("readBody with an exact Content-Length: %v allocs, want 1", allocs)
	}
}

// canonicalBody is json.Marshal of a rows-row request with per values
// per row, each a full-precision float as a client would send it.
func canonicalBody(tb testing.TB, rows, per int) []byte {
	tb.Helper()
	rng := xrand.New(13).Split("wire")
	req := PredictRequest{Instances: make([][]float64, rows)}
	for i := range req.Instances {
		req.Instances[i] = make([]float64, per)
		for j := range req.Instances[i] {
			req.Instances[i][j] = rng.Float64() - 0.5
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// maxDecodeAllocs bounds the allocations of decoding a canonical body:
// the request tensor's header, shape and storage. Decoding through a
// [][]float64 intermediate grows every row's slice and cannot meet it.
const maxDecodeAllocs = 3

// TestPredictDecodeAllocs guards the fast path's allocation count for a
// canonical 1-row and 8-row body at the light deployment's 3×12×12
// input, and checks that the tensor matches the reference path's.
func TestPredictDecodeAllocs(t *testing.T) {
	s := newWireServer(t, [3]int{3, 12, 12})
	for _, rows := range []int{1, 8} {
		body := canonicalBody(t, rows, 3*12*12)
		got, gotErr := s.decodePredict(body, nil)
		want, wantErr := referenceDecode(s, bytes.NewReader(body))
		if diff := sameDecode(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("%d rows: %s", rows, diff)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.decodePredict(body, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxDecodeAllocs {
			t.Errorf("decoding a canonical %d-row body: %v allocs, want at most %d", rows, allocs, maxDecodeAllocs)
		}
	}
}

// BenchmarkPredictDecode compares the fast path with the encoding/json
// reference on a canonical body at the light deployment's input shape.
func BenchmarkPredictDecode(b *testing.B) {
	s := newWireServer(b, [3]int{3, 12, 12})
	for _, rows := range []int{1, 8} {
		body := canonicalBody(b, rows, 3*12*12)
		b.Run(fmt.Sprintf("fast/b=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := s.decodePredict(body, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("json/b=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := referenceDecode(s, bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
