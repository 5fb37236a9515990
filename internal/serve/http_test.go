package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tdfm/internal/chaos"
)

// newHTTPServer builds a five-member server with a 1×2×2 input shape
// (four floats per instance) on a fake clock.
func newHTTPServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = chaos.NewFake()
	}
	opts.Input = [3]int{1, 2, 2}
	s, err := New(fiveMembers(), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// doJSON posts body to path and decodes the JSON reply into out.
func doJSON(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s reply %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

const twoInstances = `{"instances": [[0,0,0,0], [1,1,1,1]]}`

func TestHTTPPredictOK(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	h := newHTTPServer(t, Options{}).Handler()
	var resp PredictResponse
	rec := doJSON(t, h, http.MethodPost, "/predict?probs=1", twoInstances, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if len(resp.Predictions) != 2 || resp.Predictions[0] != 1 || resp.Predictions[1] != 1 {
		t.Fatalf("predictions = %v, want [1 1]", resp.Predictions)
	}
	if resp.Quorum != "5/5" {
		t.Fatalf("quorum = %q, want 5/5", resp.Quorum)
	}
	if len(resp.Members) != 5 || resp.Members[0].Name != "alpha" || resp.Members[0].Status != "ok" {
		t.Fatalf("members = %+v", resp.Members)
	}
	if len(resp.Probs) != 2 || resp.Probs[0][1] != 0.45 {
		t.Fatalf("probs = %v, want mean class-1 prob 0.45", resp.Probs)
	}
	// Without ?probs=1 the probs field is omitted.
	var bare map[string]any
	doJSON(t, h, http.MethodPost, "/predict", twoInstances, &bare)
	if _, ok := bare["probs"]; ok {
		t.Fatal("probs present without ?probs=1")
	}
}

// TestHTTPPredictUnencodableProbs is the regression test for replies
// JSON cannot represent: with ?probs=1 a non-finite mean probability used
// to produce a 200 status line with an empty body, because the header
// went out before the encoder failed. It must now be a typed 500.
func TestHTTPPredictUnencodableProbs(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	members := fiveMembers()
	for i := range members {
		members[i].Clf = stubClf{row: []float64{math.NaN(), 0.5, 0.25}}
	}
	s, err := New(members, 3, Options{Clock: chaos.NewFake(), Input: [3]int{1, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var fail ErrorResponse
	rec := doJSON(t, h, http.MethodPost, "/predict?probs=1", twoInstances, &fail)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(fail.Error, "encoding response") {
		t.Fatalf("error = %q, want an encoding failure", fail.Error)
	}
	// Without ?probs=1 the reply holds only class indices and encodes.
	var ok PredictResponse
	if rec := doJSON(t, h, http.MethodPost, "/predict", twoInstances, &ok); rec.Code != http.StatusOK {
		t.Fatalf("status without probs = %d, body %q", rec.Code, rec.Body.String())
	}
}

func TestHTTPPredictBadRequests(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	h := newHTTPServer(t, Options{}).Handler()
	cases := []struct {
		name, method, body string
		want               int
		wantErr            string
	}{
		{"malformed json", http.MethodPost, `{"instances": [[0,0`, http.StatusBadRequest,
			"decoding body: unexpected EOF"},
		{"wrong instance length", http.MethodPost, `{"instances": [[1,2,3]]}`, http.StatusBadRequest,
			"instance 0 has 3 values, want 4 (channels 1 × height 2 × width 2)"},
		{"empty batch", http.MethodPost, `{"instances": []}`, http.StatusBadRequest,
			"no instances in request"},
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, "use POST"},
	}
	for _, c := range cases {
		var resp ErrorResponse
		rec := doJSON(t, h, c.method, "/predict", c.body, &resp)
		if rec.Code != c.want {
			t.Fatalf("%s: status = %d, want %d (body %s)", c.name, rec.Code, c.want, rec.Body.String())
		}
		if resp.Error != c.wantErr {
			t.Fatalf("%s: error %q, want %q", c.name, resp.Error, c.wantErr)
		}
	}
}

func TestHTTPPredictShedsWith429(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	clk := chaos.NewFake()
	s := newHTTPServer(t, Options{Clock: clk, QueueCapacity: 1, MemberDeadline: 100 * time.Millisecond})
	h := s.Handler()
	// Hold the only slot with a direct request whose members sleep on the
	// fake clock, then hit the API: it must shed immediately.
	chaos.Arm("serve/member", "", chaos.Action{Delay: 50 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := s.Predict(batch())
		done <- err
	}()
	clk.BlockUntil(6)

	rec := doJSON(t, h, http.MethodPost, "/predict", twoInstances, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	clk.Advance(50 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

func TestHTTPPredictQuorumFailureIs503(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	h := newHTTPServer(t, Options{}).Handler()
	for _, pat := range []string{"/alpha", "/bravo", "/hangs", "/crash"} {
		chaos.Arm("serve/member", pat, chaos.Action{Err: chaos.ErrInjected})
	}
	var resp ErrorResponse
	rec := doJSON(t, h, http.MethodPost, "/predict", twoInstances, &resp)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	if resp.Quorum != "1/5" {
		t.Fatalf("quorum = %q, want 1/5", resp.Quorum)
	}
}

func TestHTTPHealthz(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	s := newHTTPServer(t, Options{})
	h := s.Handler()
	var resp HealthResponse
	rec := doJSON(t, h, http.MethodGet, "/healthz", "", &resp)
	if rec.Code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("healthz = %d %q", rec.Code, resp.Status)
	}
	if len(resp.Members) != 5 || resp.Members[2].Name != "hangs" || resp.Members[2].Breaker != "closed" {
		t.Fatalf("members = %+v", resp.Members)
	}
	s.Drain()
	resp = HealthResponse{}
	rec = doJSON(t, h, http.MethodGet, "/healthz", "", &resp)
	if rec.Code != http.StatusServiceUnavailable || resp.Status != "draining" {
		t.Fatalf("draining healthz = %d %q, want 503 draining", rec.Code, resp.Status)
	}
	// And the predict path refuses with 503 too.
	rec = doJSON(t, h, http.MethodPost, "/predict", twoInstances, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict during drain = %d, want 503", rec.Code)
	}
}
