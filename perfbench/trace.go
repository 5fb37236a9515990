package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdfm/internal/core"
	"tdfm/internal/obs"
	"tdfm/internal/parallel"
	"tdfm/internal/tensor"
)

// span is one timed interval at a layer boundary, or a point event when
// Start == End. Spans of one request or cell share an ID: the load
// generator's request number for "http" and "client", the server's
// request key for "req-*", the batch key for "batch-flush", the cell key
// for "cell-*" and "cache-*".
type span struct {
	Layer string `json:"layer"`
	ID    string `json:"id,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Rows is the row count of a member call or a flushed batch.
	Rows int `json:"rows,omitempty"`
	// N is the request count of a flushed batch.
	N int `json:"n,omitempty"`
	// Note carries the member architecture, the flush reason, or a
	// failure.
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one traced run and writes them out
// when the run ends. It records only from the benchmark's side of each
// call: an HTTP middleware, a timing Classifier around each member, an
// obs.Sink, timers around registry and runner calls, and a sampler of
// parallel.InUse. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	// on gates the HTTP middleware and the client spans, so the untraced
	// rounds of a traced run pay one atomic load for them.
	on atomic.Bool
	// gens numbers the generations handed out by generation.
	gens atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f and records it as a span of the given layer.
func (t *tracer) timed(layer, id string, f func() error) error {
	if t == nil {
		return f()
	}
	start := t.now()
	err := f()
	s := span{Layer: layer, ID: id, Start: start, End: t.now()}
	if err != nil {
		s.Note = err.Error()
	}
	t.add(s)
	return err
}

// Emit implements obs.Sink: it timestamps the request, batch and cell
// events the per-layer metrics are derived from. Servers and runners get
// their sink from generation, which keeps the event keys unique.
func (t *tracer) Emit(e obs.Event) {
	now := t.now()
	s := span{ID: e.Key, Start: now, End: now}
	switch e.Kind {
	case obs.KindReqAdmit:
		s.Layer = "req-admit"
	case obs.KindReqDone:
		s.Layer = "req-done"
		if e.Err != nil {
			s.Note = e.Err.Error()
		}
	case obs.KindReqShed:
		s.Layer = "req-shed"
	case obs.KindBatchFlush:
		// Detail is "<reason> rows=<n>".
		s.Layer, s.N = "batch-flush", e.N
		reason, rows, _ := strings.Cut(e.Detail, " rows=")
		s.Note = reason
		fmt.Sscan(rows, &s.Rows)
	case obs.KindCellStart:
		s.Layer = "cell-start"
	case obs.KindCellFinish:
		s.Layer = "cell-finish"
		if e.Err != nil {
			s.Note = e.Err.Error()
		}
	case obs.KindCacheHit:
		s.Layer = "cache-hit"
	case obs.KindCacheMiss:
		s.Layer = "cache-miss"
	default:
		return
	}
	t.add(s)
}

// generation returns a sink for one server generation or grid pass: it
// prefixes every event key with the generation's number, because each
// Server numbers its requests and batches from 1 and every grid pass
// reuses the same cell keys.
func (t *tracer) generation() obs.Sink {
	prefix := strconv.FormatInt(t.gens.Add(1), 10) + "/"
	return obs.SinkFunc(func(e obs.Event) {
		e.Key = prefix + e.Key
		t.Emit(e)
	})
}

// middleware times every request through next as an "http" span, keyed
// by the load generator's X-Bench-Id header.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{Layer: "http", ID: r.Header.Get(benchIDHeader), Start: start, End: t.now()})
	})
}

// timedClf wraps one serving member and records each forward pass as a
// "member" span. It is installed only in traced runs: core.ReleaseArenas
// and core.ToF32 do not recognise the wrapper, so untraced runs serve the
// unwrapped members.
type timedClf struct {
	inner core.Classifier
	arch  string
	tr    *tracer
}

// PredictProbs implements core.Classifier.
func (c *timedClf) PredictProbs(x *tensor.Tensor) *tensor.Tensor {
	start := c.tr.now()
	p := c.inner.PredictProbs(x)
	c.tr.add(span{Layer: "member", Start: start, End: c.tr.now(), Rows: x.Dim(0), Note: c.arch})
	return p
}

// Predict implements core.Classifier.
func (c *timedClf) Predict(x *tensor.Tensor) []int {
	start := c.tr.now()
	p := c.inner.Predict(x)
	c.tr.add(span{Layer: "member", Start: start, End: c.tr.now(), Rows: x.Dim(0), Note: c.arch})
	return p
}

// sampler polls parallel.InUse every millisecond until stopped.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	vals []float64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.vals = append(s.vals, float64(parallel.InUse()))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *sampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.vals
}

// window returns the spans that start in [from, to), sorted by start.
func (t *tracer) window(from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durations returns the durations in ms of the spans of one layer,
// optionally narrowed to one Note.
func durations(spans []span, layer, note string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && (note == "" || s.Note == note) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// count returns how many spans belong to layer.
func count(spans []span, layer string) int {
	n := 0
	for _, s := range spans {
		if s.Layer == layer {
			n++
		}
	}
	return n
}

// pairs matches each start event with the end event of the same ID and
// returns the intervals in ms, keyed by ID.
func pairs(spans []span, startLayer, endLayer string) map[string]float64 {
	starts := make(map[string]int64)
	out := make(map[string]float64)
	for _, s := range spans {
		switch s.Layer {
		case startLayer:
			starts[s.ID] = s.Start
		case endLayer:
			if st, ok := starts[s.ID]; ok {
				out[s.ID] = float64(s.Start-st) / 1e6
			}
		}
	}
	return out
}

// values returns a map's values in key order.
func values(m map[string]float64) []float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// write saves every span as JSON lines to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer lists the metrics a traced run prints, with their units.
// Every workload prints all of them; a layer a workload does not
// exercise reads 0 (the batcher on light, members and HTTP on grid).
var perLayer = []struct{ name, unit string }{
	// Wire: handler time outside admission-to-vote.
	{"serve.handler_ms.p50", "ms"},
	{"serve.handler_ms.p99", "ms"},
	{"serve.wire_ms.mean", "ms"},
	// Admission to vote.
	{"serve.predict_ms.p50", "ms"},
	{"serve.predict_ms.p99", "ms"},
	{"serve.admitted", "count"},
	{"serve.shed", "count"},
	// Member forward, and its training twin.
	{"core.member_ms.p50.convnet", "ms"},
	{"core.member_ms.p50.mobilenet", "ms"},
	{"core.member_ms.p50.resnet18", "ms"},
	{"core.member_ms.p50.vgg11", "ms"},
	{"core.member_ms.p50.vgg16", "ms"},
	{"core.member_rows.mean", "rows"},
	{"core.member_busy_frac", "frac"},
	{"experiment.cell_s.base", "s"},
	{"experiment.cell_s.ls", "s"},
	{"experiment.cell_s.lc", "s"},
	{"experiment.cell_s.rl", "s"},
	{"experiment.cell_s.kd", "s"},
	{"experiment.cell_s.ens", "s"},
	// Batcher.
	{"serve.flushes", "count"},
	{"serve.rows_per_flush.mean", "rows"},
	{"serve.reqs_per_flush.mean", "count"},
	{"serve.flush_window_frac", "frac"},
	{"serve.fanout_ms.p50", "ms"},
	{"serve.batch_wait_ms.mean", "ms"},
	// Swap.
	{"registry.open_ms", "ms"},
	{"serve.swap_ms.max", "ms"},
	{"serve.swaps", "count"},
	// Set-up.
	{"registry.publish_ms", "ms"},
	{"experiment.dataset_ms", "ms"},
	// Grid scheduling.
	{"experiment.cells_trained", "count"},
	{"experiment.cache_hit_frac", "frac"},
	{"parallel.inuse.mean", "slots"},
	// Memory.
	{"tensor.pool_hit_frac", "frac"},
	{"go.alloc_kb_per_op", "kB/op"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms.total", "ms"},
	// Validity of the benchmark itself.
	{"loadgen.lag_ms.p99", "ms"},
	{"loadgen.open_ms.p50", "ms"},
	{"loadgen.open_ms.p99", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.open.sent", "count"},
	{"loadgen.open.ok", "count"},
	{"loadgen.open.failed", "count"},
	{"loadgen.closed.sent", "count"},
	{"loadgen.closed.ok", "count"},
	{"loadgen.closed.failed", "count"},
	{"serve.client_ms.mean", "ms"},
	{"trace.overhead_frac", "frac"},
	{"fail_frac", "frac"},
}

// complete fills every listed metric the workload did not set with 0 and
// stamps the listed unit on each, so a run prints exactly the list.
func complete(list []struct{ name, unit string }, got map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{Value: got[m.name], Unit: m.unit}
	}
	return out
}
