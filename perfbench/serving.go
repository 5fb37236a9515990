package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/data"
	"tdfm/internal/datagen"
	"tdfm/internal/experiment"
	"tdfm/internal/models"
	"tdfm/internal/obs"
	"tdfm/internal/parallel"
	"tdfm/internal/registry"
	"tdfm/internal/serve"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// servingSpec is one serving deployment and the traffic sent to it.
type servingSpec struct {
	// tech is the study technique trained at set-up; single-model
	// techniques train a convnet.
	tech   string
	epochs int
	// batchCap and batchWindow are the serve.Options micro-batching knobs
	// (0 leaves batching off, the tdfmserve default).
	batchCap    int
	batchWindow time.Duration
	// maxRows bounds the seeded per-request row count, drawn uniformly
	// from 1..maxRows.
	maxRows int
	// rate is the open-loop arrival rate in rows per second, about 30% of
	// the deployment's closed-loop rows_per_s on the reference host:
	// low enough that the queue stays bounded when a shared host runs at
	// half speed for a while.
	rate float64
	// swapEvery is the hot-swap cadence during the open loop (0 = none).
	swapEvery time.Duration
}

// watchInterval is tdfmserve's -watch-interval default. tdfmserve
// hot-swaps only from its registry watch, which polls at this interval,
// so it is the fastest cadence production swaps at.
const watchInterval = 2 * time.Second

// lightSpec: an LS-trained convnet, one row per request, batching off,
// hot-swapping between two published versions during the open loop.
var lightSpec = servingSpec{tech: "ls", epochs: 4, maxRows: 1, rate: 900, swapEvery: watchInterval}

// ensembleSpec: the 5-member study ensemble with micro-batching on and
// 1–8 rows per request.
var ensembleSpec = servingSpec{tech: "ens", epochs: 1, batchCap: 32, batchWindow: 2 * time.Millisecond, maxRows: 8, rate: 130}

const (
	// setupReps is how many times a run builds the deployment from
	// scratch; setup_s is the median and the last one is measured.
	setupReps = 3
	// poolSize is the number of distinct pre-encoded requests.
	poolSize = 512
	// rounds is how many open-loop-then-closed-loop rounds a serving run
	// alternates between; a traced run traces every second one.
	rounds = 6
	// warmRequests are sent sequentially at the end of each set-up, and
	// after each round's swap in a traced run.
	warmRequests = 64
	// maxInflight bounds the open loop's outstanding requests; when it is
	// reached the generator falls behind and its lag shows it.
	maxInflight = 4096
	// benchIDHeader carries the load generator's request number, the ID
	// shared by the client and server spans of one request.
	benchIDHeader = "X-Bench-Id"
	// servingDataset is the dataset every serving workload trains on and
	// sends rows from (gtsrblike tiny: 3×12×12 inputs, 86 test rows).
	servingDataset = "gtsrblike"
)

// request is one pre-encoded /predict body and the predictions the
// opened artifact gives for its rows.
type request struct {
	body []byte
	want []int
}

// deployment is one set-up: a registry holding the trained model, the
// hot-swap front serving it over HTTP, and the request pool.
type deployment struct {
	spec   servingSpec
	dir    string
	opts   serve.Options
	hot    *serve.Hot
	http   *http.Server
	served chan error
	url    string
	pool   []request
	tr     *tracer
}

// newServer builds a Server over an opened artifact exactly as
// `tdfmserve -model` does. With a tracer each member is wrapped in a
// timing Classifier and the tracer joins the production sink.
func (d *deployment) newServer(clf core.Classifier, man registry.Manifest, tr *tracer) (*serve.Server, error) {
	members := serve.Split(clf, man.Members)
	opts := d.opts
	opts.Input = man.Input
	opts.Model = serve.ModelInfo{Version: man.Version, Digest: man.Digest}
	if tr != nil {
		for i := range members {
			members[i].Clf = &timedClf{inner: members[i].Clf, arch: members[i].Name, tr: tr}
		}
		opts.Sink = obs.Sinks{opts.Sink, tr.generation()}
	}
	return serve.New(members, man.Classes, opts)
}

// open opens a registry version and builds a server over it, timing the
// registry call.
func (d *deployment) open(version int, tr *tracer) (*serve.Server, error) {
	var (
		clf core.Classifier
		man registry.Manifest
	)
	err := d.tr.timed("registry.open", "v"+strconv.Itoa(version), func() (err error) {
		clf, man, err = registry.Open(d.dir, version)
		return err
	})
	if err != nil {
		return nil, err
	}
	return d.newServer(clf, man, tr)
}

// swap hot-swaps to a freshly opened version, as `tdfmserve -watch`
// does for each newly published one.
func (d *deployment) swap(version int, tr *tracer) error {
	next, err := d.open(version, tr)
	if err != nil {
		return err
	}
	return d.tr.timed("swap", "v"+strconv.Itoa(version), func() error {
		d.hot.Swap(next)
		return nil
	})
}

// startSwaps hot-swaps between the two published versions every
// spec.swapEvery until the returned stop function is called; stop
// returns how many swaps completed and the first error.
func (d *deployment) startSwaps(tr *tracer) func() (int, error) {
	if d.spec.swapEvery <= 0 {
		return func() (int, error) { return 0, nil }
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	var (
		swaps int
		err   error
	)
	go func() {
		defer close(done)
		tick := time.NewTicker(d.spec.swapEvery)
		defer tick.Stop()
		for version := 2; ; version = 3 - version {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if err = d.swap(version, tr); err != nil {
				return
			}
			swaps++
		}
	}()
	return func() (int, error) {
		close(quit)
		<-done
		return swaps, err
	}
}

// close shuts the listener, waits for the serve loop, and drains the
// serving generation.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.hot.Drain()
	return err
}

// prodSink mirrors tdfmserve's logSink: model-lifecycle events are
// logged, request-scoped events are dropped. A non-nil sink matters:
// Server.Predict and the batcher format request and batch IDs only when
// a sink is set.
type prodSink struct{ w io.Writer }

// Emit implements obs.Sink.
func (s prodSink) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindSwap:
		fmt.Fprintf(s.w, "perfbench: swap %s\n", e.Detail)
	case obs.KindPoolStats:
		fmt.Fprintf(s.w, "perfbench: pool-stats [%s] %s\n", e.Key, e.Detail)
	}
}

// setup builds one deployment from scratch: dataset, training, publish,
// open, listen, reference predictions, request pool and warm-up.
func setup(cfg config, spec servingSpec, rep int, tr *tracer, client *http.Client) (*deployment, error) {
	d := &deployment{
		spec: spec,
		dir:  filepath.Join(cfg.work, fmt.Sprintf("registry-%d", rep)),
		tr:   tr,
		// The tdfmserve flag defaults, plus the workload's batching knobs.
		opts: serve.Options{
			MemberDeadline:   2 * time.Second,
			QueueCapacity:    64,
			BreakerThreshold: 3,
			BreakerCooldown:  10 * time.Second,
			BatchCap:         spec.batchCap,
			BatchWindow:      spec.batchWindow,
			Precision:        serve.PrecisionF64,
			Clock:            chaos.Wall(),
			Sink:             prodSink{cfg.log},
		},
	}
	runner := experiment.NewRunner(datagen.ScaleTiny, cfg.seed, 1)
	var train, test *data.Dataset
	err := tr.timed("dataset", servingDataset, func() (err error) {
		train, test, err = runner.Dataset(servingDataset)
		return err
	})
	if err != nil {
		return nil, err
	}
	technique, err := core.Get(spec.tech)
	if err != nil {
		return nil, err
	}
	clf, err := technique.Train(core.Config{Arch: models.ConvNet, Epochs: spec.epochs},
		core.TrainSet{Data: train}, xrand.New(cfg.seed).Split("serve"))
	if err != nil {
		return nil, fmt.Errorf("training %s: %w", spec.tech, err)
	}
	// The swap workload alternates between two published versions of
	// the same trained weights: every swap runs the full open, verify,
	// build and retire path, and every reply stays checkable against one
	// reference.
	versions := 1
	if spec.swapEvery > 0 {
		versions = 2
	}
	for v := 1; v <= versions; v++ {
		err := tr.timed("registry.publish", "v"+strconv.Itoa(v), func() error {
			_, err := registry.Publish(d.dir, clf, registry.PublishOptions{
				Note: fmt.Sprintf("dataset=%s technique=%s seed=%d scale=tiny", servingDataset, spec.tech, cfg.seed)})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var (
		opened core.Classifier
		man    registry.Manifest
	)
	err = tr.timed("registry.open", "v1", func() (err error) {
		opened, man, err = registry.Open(d.dir, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The reference: Classifier.Predict of the opened artifact on every
	// row requests draw from, computed before the server shares it. It
	// predicts in request-sized chunks (rows are independent, so the
	// chunking does not change the result) so the members' activation
	// arenas are sized as serving sizes them.
	var want []int
	for lo := 0; lo < test.Len(); lo += spec.maxRows {
		want = append(want, opened.Predict(test.X.SliceRows(lo, min(lo+spec.maxRows, test.Len())))...)
	}
	srv, err := d.newServer(opened, man, nil)
	if err != nil {
		return nil, err
	}
	d.pool = buildPool(test, want, spec.maxRows, xrand.New(cfg.seed).Split("requests"))
	d.hot = serve.NewHot(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = d.hot.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	d.http = &http.Server{Handler: handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.http.Serve(ln) }()
	d.url = "http://" + ln.Addr().String() + "/predict"

	if err := warm(&loadgen{client: client, url: d.url, pool: d.pool}); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// warm sends warmRequests pooled requests one after another, so the
// serving generation's arenas and the client's connections are in place
// before anything is timed.
func warm(g *loadgen) error {
	for i := 0; i < warmRequests; i++ {
		if o := g.send(i % len(g.pool)); !o.ok {
			return fmt.Errorf("warm-up request %d failed: %s", i, o.why)
		}
	}
	return nil
}

// buildPool draws poolSize requests of 1..maxRows test rows each and
// pre-encodes their bodies, so the generator spends no CPU on encoding
// during measurement.
func buildPool(test *data.Dataset, want []int, maxRows int, rng *xrand.RNG) []request {
	per := test.X.Size() / test.Len()
	pool := make([]request, poolSize)
	for i := range pool {
		rows := 1 + rng.IntN(maxRows)
		var body serve.PredictRequest
		var r request
		for j := 0; j < rows; j++ {
			idx := rng.IntN(test.Len())
			body.Instances = append(body.Instances, test.X.Data()[idx*per:(idx+1)*per])
			r.want = append(r.want, want[idx])
		}
		b, err := json.Marshal(body)
		if err != nil {
			panic(err) // a [][]float64 of finite values always encodes
		}
		r.body = b
		pool[i] = r
	}
	return pool
}

// loadgen sends pooled requests and checks every reply.
type loadgen struct {
	client *http.Client
	url    string
	pool   []request
	tr     *tracer
	seq    atomic.Int64
}

// outcome is one sent request: when it was due, sent and answered, and
// whether the reply was a correct 200.
type outcome struct {
	due, start, end time.Time
	rows            int
	// ok: a 200 whose predictions equal the reference.
	ok bool
	// bad: a 200 with an empty, undecodable or wrong body — an output
	// check failure, not just a refused request.
	bad bool
	why string
}

// send posts pool[i] and checks the reply against its reference
// predictions.
func (g *loadgen) send(i int) (o outcome) {
	req := &g.pool[i]
	id := g.seq.Add(1)
	o = outcome{rows: len(req.want), start: time.Now()}
	defer func() {
		o.end = time.Now()
		if g.tr != nil && g.tr.on.Load() {
			g.tr.add(span{Layer: "client", ID: strconv.FormatInt(id, 10),
				Start: g.tr.at(o.start), End: g.tr.at(o.end), Rows: o.rows})
		}
	}()
	hr, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(req.body))
	if err != nil {
		o.why = err.Error()
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(benchIDHeader, strconv.FormatInt(id, 10))
	resp, err := g.client.Do(hr)
	if err != nil {
		o.why = err.Error()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.why = err.Error()
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.why = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	var pr struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		o.bad, o.why = true, fmt.Sprintf("undecodable 200 body %q: %v", body, err)
		return o
	}
	if !slices.Equal(pr.Predictions, req.want) {
		o.bad, o.why = true, fmt.Sprintf("predictions %v, reference %v", pr.Predictions, req.want)
		return o
	}
	o.ok = true
	return o
}

// openLoop sends Poisson arrivals at rate rows/s for dur and returns
// every outcome plus how late the generator sent each request. Each
// request is timed from when it was due, so waiting for a connection or
// for a stalled generator counts against the server.
func (g *loadgen) openLoop(rate float64, dur time.Duration, rng *xrand.RNG) ([]outcome, []float64) {
	meanRows := 0.0
	for _, r := range g.pool {
		meanRows += float64(len(r.want))
	}
	meanRows /= float64(len(g.pool))
	reqRate := rate / meanRows
	var (
		dues  []time.Duration
		picks []int
	)
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float64()) / reqRate
		if t >= dur.Seconds() {
			break
		}
		dues = append(dues, time.Duration(t*float64(time.Second)))
		picks = append(picks, rng.IntN(len(g.pool)))
	}
	out := make([]outcome, len(dues))
	lags := make([]float64, len(dues))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range dues {
		dueAt := start.Add(due)
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		lags[i] = ms(time.Since(dueAt))
		wg.Add(1)
		go func(i int, dueAt time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			o := g.send(picks[i])
			o.due = dueAt
			out[i] = o
		}(i, dueAt)
	}
	wg.Wait()
	return out, lags
}

// closedLoop runs clients that each send their next request as soon as
// the previous one is answered, for dur, and returns every outcome and
// the phase's wall time.
func (g *loadgen) closedLoop(clients int, dur time.Duration, rng *xrand.RNG) ([]outcome, time.Duration) {
	per := make([][]outcome, clients)
	seeds := make([]*xrand.RNG, clients)
	for c := range seeds {
		seeds[c] = rng.Split("client" + strconv.Itoa(c))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				o := g.send(seeds[c].IntN(len(g.pool)))
				o.due = o.start
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out, wall
}

// phase summarises one load phase's outcomes.
type phase struct {
	sent, ok, failed, bad int
	rows                  int
	latMS                 []float64 // from due to answer, ok requests only
	clientMS              []float64 // from send to answer, every request
	firstBad              string
}

func summarise(outs []outcome) phase {
	var p phase
	for _, o := range outs {
		p.sent++
		p.clientMS = append(p.clientMS, ms(o.end.Sub(o.start)))
		switch {
		case o.ok:
			p.ok++
			p.rows += o.rows
			p.latMS = append(p.latMS, ms(o.end.Sub(o.due)))
		case o.bad:
			p.bad++
			p.failed++
		default:
			p.failed++
		}
		if !o.ok && p.firstBad == "" {
			p.firstBad = o.why
		}
	}
	return p
}

// runServing runs a serving workload: set-up setupReps times, then
// rounds of an open-loop (with swaps) and a closed-loop segment against
// the last deployment.
func runServing(cfg config, spec servingSpec) (*result, error) {
	n := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) < n {
		n = runtime.GOMAXPROCS(0)
	}
	// tdfmserve's -workers default: the worker budget and the tensor
	// kernels' parallelism both follow GOMAXPROCS.
	parallel.SetBudget(n)
	tensor.SetParallelism(n)
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		defer func() {
			if err := tr.write(cfg.traceOut); err != nil {
				fmt.Fprintf(cfg.log, "perfbench: writing spans: %v\n", err)
			}
		}()
	}
	var (
		d      *deployment
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
			os.RemoveAll(d.dir)
		}
		t0 := time.Now()
		var err error
		d, err = setup(cfg, spec, rep, tr, client)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, since(t0))
	}
	defer d.close()
	fmt.Fprintf(cfg.log, "perfbench: set-up %v s\n", setups)
	// peak_rss_mb is the serving footprint: training's heap is returned
	// to the OS and the high-water mark restarts before the first timed
	// request.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	g := &loadgen{client: client, url: d.url, pool: d.pool, tr: tr}
	rng := xrand.New(cfg.seed).Split("load")
	total := time.Duration(cfg.seconds * float64(time.Second))

	// The open and closed loops alternate in rounds, so each metric
	// samples the whole run rather than one half of it: a slow spell on
	// a shared host then weighs on both alike. A traced run alternates
	// untraced (even) and traced (odd) rounds on the same schedule, each
	// on a freshly swapped-in, warmed generation, so the per-layer
	// metrics describe the load the end-to-end metrics measure and
	// trace.overhead_frac compares closed loops run side by side.
	var (
		plain, traced segments
		windows       [][2]int64
		inuse         []float64
		mem           memSnap
	)
	seg := total / (2 * rounds)
	for r := 0; r < rounds; r++ {
		var rtr *tracer
		if tr != nil && r%2 == 1 {
			rtr = tr
		}
		if tr != nil {
			if err := d.swap(1, rtr); err != nil {
				return nil, err
			}
			if err := warm(g); err != nil {
				return nil, err
			}
		}
		acc := &plain
		var (
			from int64
			smp  *sampler
			m0   memSnap
		)
		if rtr != nil {
			acc = &traced
			tr.on.Store(true)
			from, smp, m0 = tr.now(), startSampler(), takeMemSnap()
		}
		stopSwaps := d.startSwaps(rtr)
		o, l := g.openLoop(spec.rate, seg, rng.Split("open"+strconv.Itoa(r)))
		k, err := stopSwaps()
		if err != nil {
			if smp != nil {
				smp.finish()
			}
			return nil, err
		}
		c, w := g.closedLoop(n, seg, rng.Split("closed"+strconv.Itoa(r)))
		if rtr != nil {
			mem = mem.plus(takeMemSnap().minus(m0))
			inuse = append(inuse, smp.finish()...)
			windows = append(windows, [2]int64{from, tr.now()})
			tr.on.Store(false)
		}
		acc.open, acc.lags, acc.closed = append(acc.open, o...), append(acc.lags, l...), append(acc.closed, c...)
		acc.wall += w
		acc.swaps += k
	}
	open, closed := summarise(plain.open), summarise(plain.closed)
	logPhase(cfg.log, "open", open)
	logPhase(cfg.log, "closed", closed)
	fmt.Fprintf(cfg.log, "perfbench: open loop: %d samples, p50 %.3f ms, p99 %.3f ms, generator lag p99 %.3f ms, %d swaps\n",
		len(open.latMS), quantile(open.latMS, 0.5), quantile(open.latMS, 0.99), quantile(plain.lags, 0.99), plain.swaps)
	plainRate := float64(closed.rows) / plain.wall.Seconds()
	tOpen, tClosed := summarise(traced.open), summarise(traced.closed)
	attempted := open.sent + closed.sent + tOpen.sent + tClosed.sent
	failed := open.failed + closed.failed + tOpen.failed + tClosed.failed
	// Any failed request fails the run: a shed or refused request is not
	// counted in the latency or throughput figures, so a run with
	// failures must not pass them off as the program's.
	res := &result{
		Correct:   failed == 0 && open.bad+closed.bad+tOpen.bad+tClosed.bad == 0,
		Attempted: attempted,
		Failed:    failed,
	}
	if tr == nil {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics = complete(endToEnd, map[string]float64{
			"setup_s":     quantile(setups, 0.5),
			"p50_ms":      quantile(open.latMS, 0.5),
			"rows_per_s":  plainRate,
			"peak_rss_mb": rss,
		})
		return res, nil
	}

	logPhase(cfg.log, "traced open", tOpen)
	logPhase(cfg.log, "traced closed", tClosed)
	tracedRate := float64(tClosed.rows) / traced.wall.Seconds()
	var spans []span
	wallMS := 0.0
	for _, w := range windows {
		spans = append(spans, tr.window(w[0], w[1])...)
		wallMS += float64(w[1]-w[0]) / 1e6
	}
	all := tr.window(0, math.MaxInt64)
	m := servingLayers(spans, wallMS, len(d.hot.Server().MemberNames()))
	m["registry.open_ms"] = mean(durations(all, "registry.open", ""))
	m["registry.publish_ms"] = mean(durations(all, "registry.publish", ""))
	m["experiment.dataset_ms"] = mean(durations(all, "dataset", ""))
	m["parallel.inuse.mean"] = mean(inuse)
	memMetrics(mem, tOpen.sent+tClosed.sent, m)
	m["loadgen.lag_ms.p99"] = quantile(traced.lags, 0.99)
	m["loadgen.open_ms.p50"] = quantile(tOpen.latMS, 0.5)
	m["loadgen.open_ms.p99"] = quantile(tOpen.latMS, 0.99)
	m["loadgen.open.sent"], m["loadgen.open.ok"], m["loadgen.open.failed"] = float64(tOpen.sent), float64(tOpen.ok), float64(tOpen.failed)
	m["loadgen.closed.sent"], m["loadgen.closed.ok"], m["loadgen.closed.failed"] = float64(tClosed.sent), float64(tClosed.ok), float64(tClosed.failed)
	m["loadgen.sent"] = float64(tOpen.sent + tClosed.sent)
	m["loadgen.ok"] = float64(tOpen.ok + tClosed.ok)
	m["loadgen.failed"] = float64(tOpen.failed + tClosed.failed)
	m["serve.client_ms.mean"] = mean(append(tOpen.clientMS, tClosed.clientMS...))
	m["trace.overhead_frac"] = 1 - frac(tracedRate, plainRate)
	m["fail_frac"] = frac(float64(failed), float64(attempted))
	fmt.Fprintf(cfg.log, "perfbench: traced closed loops %.1f rows/s vs untraced %.1f rows/s; set-up %v s\n", tracedRate, plainRate, setups)
	res.Metrics = complete(perLayer, m)
	return res, nil
}

// segments gathers the open- and closed-loop segments of one kind of
// round: every outcome, the generator's lateness, the closed loops' wall
// time and the swaps made.
type segments struct {
	open, closed []outcome
	lags         []float64
	wall         time.Duration
	swaps        int
}

// logPhase reports one phase's sent, succeeded and failed counts.
func logPhase(w io.Writer, name string, p phase) {
	fmt.Fprintf(w, "perfbench: %s loop: sent %d ok %d failed %d (bad 200s %d), %d rows\n",
		name, p.sent, p.ok, p.failed, p.bad, p.rows)
	if p.firstBad != "" {
		fmt.Fprintf(w, "perfbench: %s loop: first failure: %s\n", name, p.firstBad)
	}
}

// servingLayers derives the wire, admission, member, batcher and swap
// metrics from the spans of the traced phases; wallMS is the phases'
// length and members the ensemble size.
func servingLayers(spans []span, wallMS float64, members int) map[string]float64 {
	m := make(map[string]float64)
	handler := durations(spans, "http", "")
	predict := values(pairs(spans, "req-admit", "req-done"))
	m["serve.handler_ms.p50"] = quantile(handler, 0.5)
	m["serve.handler_ms.p99"] = quantile(handler, 0.99)
	m["serve.predict_ms.p50"] = quantile(predict, 0.5)
	m["serve.predict_ms.p99"] = quantile(predict, 0.99)
	// Every admitted request runs inside exactly one handler span, so the
	// difference of the means is the mean wire time: decode, validation,
	// generation pinning and encode.
	m["serve.wire_ms.mean"] = mean(handler) - mean(predict)
	m["serve.admitted"] = float64(count(spans, "req-admit"))
	m["serve.shed"] = float64(count(spans, "req-shed"))

	var busy, rows float64
	calls := 0
	for _, arch := range models.EnsembleMembers() {
		m["core.member_ms.p50."+arch] = quantile(durations(spans, "member", arch), 0.5)
	}
	var flushes []span
	for _, s := range spans {
		switch s.Layer {
		case "member":
			busy += ms(s.dur())
			rows += float64(s.Rows)
			calls++
		case "batch-flush":
			flushes = append(flushes, s)
		}
	}
	m["core.member_rows.mean"] = frac(rows, float64(calls))
	m["core.member_busy_frac"] = frac(busy, wallMS*float64(members))

	// Flushes run one at a time, so the member spans that start between
	// two batch-flush events belong to the first of them; the fan-out
	// lasts until the last of those members returns.
	var fanout []float64
	var flushRows, flushReqs, windows float64
	for i, f := range flushes {
		next := int64(math.MaxInt64)
		if i+1 < len(flushes) {
			next = flushes[i+1].Start
		}
		end := int64(-1)
		for _, s := range spans {
			if s.Layer == "member" && s.Start >= f.Start && s.Start < next && s.End > end {
				end = s.End
			}
		}
		if end >= 0 {
			fanout = append(fanout, float64(end-f.Start)/1e6)
		}
		flushRows += float64(f.Rows)
		flushReqs += float64(f.N)
		if f.Note == "window" {
			windows++
		}
	}
	nf := float64(len(flushes))
	m["serve.flushes"] = nf
	m["serve.rows_per_flush.mean"] = frac(flushRows, nf)
	m["serve.reqs_per_flush.mean"] = frac(flushReqs, nf)
	m["serve.flush_window_frac"] = frac(windows, nf)
	m["serve.fanout_ms.p50"] = quantile(fanout, 0.5)
	// A request waits in the batcher from its admission to the first
	// flush at or after it.
	if len(flushes) > 0 {
		var waits []float64
		for _, s := range spans {
			if s.Layer != "req-admit" {
				continue
			}
			i := sort.Search(len(flushes), func(i int) bool { return flushes[i].Start >= s.Start })
			if i < len(flushes) {
				waits = append(waits, float64(flushes[i].Start-s.Start)/1e6)
			}
		}
		m["serve.batch_wait_ms.mean"] = mean(waits)
	}
	swaps := durations(spans, "swap", "")
	m["serve.swaps"] = float64(len(swaps))
	if len(swaps) > 0 {
		m["serve.swap_ms.max"] = slices.Max(swaps)
	}
	return m
}
