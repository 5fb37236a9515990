package dist

// HTTP surface tests: the same protocol the unit tests exercise
// in-process, run through coord.Handler() and HTTPTransport over a
// real listener. These use the wall clock — backoffs are cut to
// milliseconds, and the zero-wall-sleep requirement belongs to the
// grid-chaos gate, not here.

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/experiment"
	"tdfm/internal/obs"
)

// TestHTTPEndToEnd trains one real cell over the wire: coordinator
// behind an httptest server, worker speaking HTTPTransport. A
// Times-limited fault on dist.lease downs the first two lease calls
// (answered 500), and the worker rides the outage out with jittered
// backoff before training and delivering the cell.
func TestHTTPEndToEnd(t *testing.T) {
	defer chaos.Reset()
	cfg := RunConfig{Scale: gridRunner().Scale, Seed: 1, Reps: 1, EpochOverride: 1}
	c := testCoord(t, chaos.Wall(), nil, func(o *Options) { o.Config = cfg })
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	key := cfg.NewRunner().CellKey("pneumonialike", "base", "convnet", nil, 0)
	done := startCellSpec(c, key, experiment.CellSpec{Dataset: "pneumonialike", Technique: "base", Arch: "convnet"})

	chaos.Arm("dist.lease", "hw", chaos.Action{Err: chaos.ErrInjected, Times: 2})
	w := &Worker{
		ID:        "hw",
		Transport: &HTTPTransport{Base: srv.URL},
		Backoff:   2 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background()) }()

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	c.Finish() // the grid is drained: the worker's next lease is StatusDone
	if err := <-runErr; err != nil {
		t.Fatalf("worker exited with %v", err)
	}

	// The delivered predictions are byte-identical to local training.
	want, _, err := cfg.NewRunner().Predictions("pneumonialike", "base", "convnet", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Digest(res.pred) != obs.Digest(want) {
		t.Fatalf("remote predictions digest %s, want %s", obs.Digest(res.pred), obs.Digest(want))
	}
}

// TestHTTPTransportUnreachable: a downed coordinator surfaces as
// ErrCoordinatorUnreachable from every verb, so worker retries and the
// error taxonomy both classify the outage transient.
func TestHTTPTransportUnreachable(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // refused connections from here on
	tr := &HTTPTransport{Base: srv.URL}

	if _, err := tr.Lease(LeaseRequest{Worker: "w"}); !errors.Is(err, experiment.ErrCoordinatorUnreachable) {
		t.Fatalf("lease against downed coordinator = %v", err)
	}
	if _, err := tr.Complete(CompleteRequest{Worker: "w"}); !errors.Is(err, experiment.ErrCoordinatorUnreachable) {
		t.Fatalf("complete against downed coordinator = %v", err)
	}
	if _, err := tr.Heartbeat(HeartbeatRequest{Worker: "w"}); !errors.Is(err, experiment.ErrCoordinatorUnreachable) {
		t.Fatalf("heartbeat against downed coordinator = %v", err)
	}
}

// TestDefaultClientHasTimeout: the fallback HTTP client must bound every
// call — a coordinator that accepts the connection but never answers
// would otherwise wedge a worker forever, outside the outage backoff.
func TestDefaultClientHasTimeout(t *testing.T) {
	if defaultClient.Timeout <= 0 {
		t.Fatal("defaultClient carries no timeout; a silent coordinator partition would block workers forever")
	}
}

// TestHTTPBadRequest: a malformed body answers 400 without reaching
// the coordinator, and a non-OK status wraps ErrCoordinatorUnreachable
// on the client side.
func TestHTTPBadRequest(t *testing.T) {
	c := testCoord(t, chaos.Wall(), nil, nil)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/lease", "application/json", strings.NewReader("{torn"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed lease body answered %s, want 400", resp.Status)
	}
	if c.Stats().Workers != 0 {
		t.Fatal("malformed request reached the coordinator")
	}
}

// TestHandleUnencodableReply is the regression test for replies JSON
// cannot represent: handle used to send the 200 header and then fail
// inside the encoder, leaving the worker a success status with a
// truncated body. It must answer 500 and say why.
func TestHandleUnencodableReply(t *testing.T) {
	type reply struct {
		Score float64 `json:"score"`
	}
	mux := http.NewServeMux()
	handle(mux, "/score", func(struct{}) (reply, error) { return reply{Score: math.NaN()}, nil })
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/score", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable reply answered %d %q, want 500", rec.Code, rec.Body.String())
	}
	if body := rec.Body.String(); !strings.Contains(body, "encoding /score reply") {
		t.Fatalf("body %q does not name the encoding failure", body)
	}
}
