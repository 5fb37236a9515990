package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"tdfm/internal/experiment"
)

// Handler returns the coordinator's HTTP surface: three POST endpoints
// (/lease, /complete, /heartbeat) speaking the JSON request/reply pairs
// of the Transport interface. Mount it on any server; workers reach it
// through HTTPTransport.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	handle(mux, "/lease", c.Lease)
	handle(mux, "/complete", c.Complete)
	handle(mux, "/heartbeat", c.Heartbeat)
	return mux
}

// handle mounts one JSON request/reply endpoint: decode the request
// body, call the coordinator method, encode the reply. Method errors
// (chaos-injected outages included) answer 500, which HTTPTransport
// surfaces as ErrCoordinatorUnreachable — exactly what a worker should
// see from a sick coordinator. The reply is encoded before the header
// goes out, so one JSON cannot represent (a non-finite float) answers
// 500 too, rather than a 200 with a truncated body.
func handle[Req, Rep any](mux *http.ServeMux, path string, fn func(Req) (Rep, error)) {
	mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("dist: decoding %s request: %v", path, err), http.StatusBadRequest)
			return
		}
		rep, err := fn(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body, err := json.Marshal(rep)
		if err != nil {
			http.Error(w, fmt.Sprintf("dist: encoding %s reply: %v", path, err), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(body, '\n'))
	})
}

// HTTPTransport implements Transport over the coordinator's HTTP
// surface. Every failure — refused connection, torn response, non-OK
// status — wraps experiment.ErrCoordinatorUnreachable, so the worker's
// retry loop and the error taxonomy both classify it transient.
type HTTPTransport struct {
	// Base is the coordinator's base URL ("http://host:port").
	Base string
	// Client overrides the default client when non-nil. The default
	// carries a request timeout: a partitioned coordinator that accepts
	// connections but never answers must surface as an error (engaging
	// the worker's outage backoff), not block a call forever.
	Client *http.Client
}

// defaultClient bounds every coordinator call; http.DefaultClient has no
// timeout and would wedge a worker permanently on a silent partition.
var defaultClient = &http.Client{Timeout: 30 * time.Second}

// Lease implements Transport.
func (t *HTTPTransport) Lease(req LeaseRequest) (LeaseReply, error) {
	return post[LeaseReply](t, "/lease", req)
}

// Complete implements Transport.
func (t *HTTPTransport) Complete(req CompleteRequest) (CompleteReply, error) {
	return post[CompleteReply](t, "/complete", req)
}

// Heartbeat implements Transport.
func (t *HTTPTransport) Heartbeat(req HeartbeatRequest) (HeartbeatReply, error) {
	return post[HeartbeatReply](t, "/heartbeat", req)
}

// post sends one JSON request/reply exchange to the coordinator.
func post[Rep any](t *HTTPTransport, path string, req any) (Rep, error) {
	var rep Rep
	body, err := json.Marshal(req)
	if err != nil {
		return rep, fmt.Errorf("dist: encoding %s request: %w", path, err)
	}
	client := t.Client
	if client == nil {
		client = defaultClient
	}
	resp, err := client.Post(t.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, fmt.Errorf("dist: %s: %w: %w", path, experiment.ErrCoordinatorUnreachable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("dist: %s: %w: coordinator answered %s", path, experiment.ErrCoordinatorUnreachable, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("dist: %s: %w: decoding reply: %w", path, experiment.ErrCoordinatorUnreachable, err)
	}
	return rep, nil
}
