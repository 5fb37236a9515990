package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"tdfm/internal/tensor"
)

// maxBodyPrealloc caps the buffer readBody sizes from Content-Length, so
// a request that claims a huge body and sends a small one cannot make the
// server allocate the claim up front. A larger body still reads in full:
// the buffer grows past the cap as its bytes arrive.
const maxBodyPrealloc = 1 << 20

// readBody reads r to EOF into one buffer sized from size, the request's
// Content-Length (-1 when unknown). A body as long as it claims reads
// with a single allocation, where io.ReadAll starts at 512 bytes and
// doubles. On a read error it returns the bytes read so far and the
// error.
func readBody(r io.Reader, size int64) ([]byte, error) {
	n := 512
	if size >= 0 {
		// +1 leaves room for a reader that reports EOF on a read of its own.
		n = int(min(size, maxBodyPrealloc)) + 1
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodePredict turns a /predict body into the [N, C, H, W] request
// tensor. decodeCanonical handles the canonical body in one scan; every
// other body goes to the reference path, encoding/json plus toTensor, so
// it is accepted or rejected exactly as that path decides, with the same
// error text (DESIGN.md §8, "Wire decode"). readErr is readBody's error:
// the reference decoder meets it after the body's bytes, where the
// request stream raised it.
func (s *Server) decodePredict(body []byte, readErr error) (*tensor.Tensor, error) {
	if readErr == nil {
		if x := s.decodeCanonical(body); x != nil {
			return x, nil
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req PredictRequest
	if err := json.NewDecoder(src).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding body: %v", err)
	}
	return s.toTensor(req.Instances)
}

// decodeCanonical decodes the canonical /predict body
//
//	{"instances":[[num,…],…]}
//
// with JSON whitespace allowed between tokens and anything after the
// closing brace ignored, as json.Decoder ignores it. Each number is
// written straight into the request tensor's storage; there is no
// [][]float64 intermediate. Each literal is checked against the JSON
// number grammar and converted with strconv.ParseFloat(lit, 64), the
// call encoding/json makes for a float64 on the same bytes, so every
// value is bit-identical to the reference path's.
//
// It returns nil, never an error, on any deviation: another key, an
// escaped or re-cased "instances", null, zero rows, a row of the wrong
// length, a literal strconv refuses, or an unset Options.Input. The
// caller then decodes the same bytes on the reference path.
func (s *Server) decodeCanonical(body []byte) *tensor.Tensor {
	c, h, wd := s.opts.Input[0], s.opts.Input[1], s.opts.Input[2]
	if c <= 0 || h <= 0 || wd <= 0 {
		return nil
	}
	want := c * h * wd
	// Every row opens with '[', so the bracket count bounds the row count
	// and sizes the tensor. It is also capped at one row per 8*want body
	// bytes, so the storage allocated before any row has parsed is at
	// most the body's own size plus a row; a denser body grows it.
	n := min(bytes.Count(body, []byte{'['})-1, len(body)/(8*want)+1)
	if n < 1 {
		return nil
	}
	x := tensor.New(n, c, h, wd)
	sc := wireScanner{b: body}
	if !sc.token(`{`) || !sc.token(`"instances"`) || !sc.token(`:`) || !sc.token(`[`) {
		return nil
	}
	rows := 0
	for {
		if !sc.token(`[`) {
			return nil
		}
		if rows == x.Dim(0) {
			grown := tensor.New(2*rows, c, h, wd)
			copy(grown.Data(), x.Data())
			x = grown
		}
		row := x.Data()[rows*want : (rows+1)*want]
		for k := range row {
			if k > 0 && !sc.token(`,`) {
				return nil
			}
			v, ok := sc.number()
			if !ok {
				return nil
			}
			row[k] = v
		}
		if !sc.token(`]`) {
			return nil
		}
		rows++
		if !sc.token(`,`) {
			break
		}
	}
	if !sc.token(`]`) || !sc.token(`}`) {
		return nil
	}
	if rows < x.Dim(0) {
		x = x.SliceRows(0, rows)
	}
	return x
}

// wireScanner walks a request body token by token for decodeCanonical.
type wireScanner struct {
	b []byte
	i int
}

// skipSpace advances past JSON whitespace.
func (s *wireScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token skips whitespace and consumes tok if the body continues with it.
func (s *wireScanner) token(tok string) bool {
	s.skipSpace()
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// number skips whitespace and consumes one JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converted with
// strconv.ParseFloat. ok is false if the bytes are not a JSON number or
// strconv refuses the literal (a float64 overflow such as 1e400).
func (s *wireScanner) number() (v float64, ok bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return v, true
}

// skipDigits returns the index of the first non-digit in b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
