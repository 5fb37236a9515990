package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tdfm/internal/data"
	"tdfm/internal/datagen"
	"tdfm/internal/experiment"
	"tdfm/internal/faultinject"
	"tdfm/internal/models"
	"tdfm/internal/obs"
	"tdfm/internal/parallel"
	"tdfm/internal/xrand"
)

const (
	// gridDataset, gridEpochs and gridRates fix the panel the grid
	// workload trains: RunPanel(cifar10like, convnet, mislabel, {0.1, 0.5})
	// at tiny scale, 13 cells including the shared golden cell.
	gridDataset = "cifar10like"
	gridEpochs  = 2
)

var gridRates = []float64{0.1, 0.5}

// gridSetups is how many times each pass sets up; the pass runs on the
// last set-up, made from --seed. One set-up takes about 15 ms on the
// reference host and its work depends on the seed (each class's
// prototype draws 3–5 shapes to render), so the others generate sibling
// datasets from seeds derived from --seed: setup_s is then a median over
// many inputs rather than a reading of one.
const gridSetups = 8

// gridPass is one measured grid run.
type gridPass struct {
	// setupS holds the pass's set-up times; gridS is its grid wall clock.
	setupS []float64
	gridS  float64
	// rssMB is the pass's peak resident set size.
	rssMB     float64
	cells     int
	trainRows int
	digest    string
	failures  []string
}

// gridSetup is one pass's set-up: a fresh runner for seed with a durable
// journal in dir, and the generated training set.
func gridSetup(seed uint64, dir string, workers int, sink obs.Sink, tr *tracer) (*experiment.Runner, *obs.Journal, *data.Dataset, error) {
	r := experiment.NewRunner(datagen.ScaleTiny, seed, 1)
	r.Workers = workers
	r.EpochOverride = gridEpochs
	r.Sink = sink
	j, err := obs.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	r.Journal = j
	var train *data.Dataset
	err = tr.timed("dataset", gridDataset, func() (err error) {
		train, _, err = r.Dataset(gridDataset)
		return err
	})
	if err != nil {
		j.Close()
		return nil, nil, nil, err
	}
	return r, j, train, nil
}

// runGridPass sets up gridSetups times, runs the panel on the last
// set-up, and verifies the journal. sink receives the runner's events.
func runGridPass(cfg config, i int, workers int, sink obs.Sink, tr *tracer) (gridPass, error) {
	var p gridPass
	dir := filepath.Join(cfg.work, fmt.Sprintf("journal-%d", i))
	defer os.RemoveAll(dir)
	// The set-ups start on a collected heap, and the pass's peak resident
	// set size starts after them.
	runtime.GC()
	var (
		r     *experiment.Runner
		j     *obs.Journal
		train *data.Dataset
	)
	for k := 0; k < gridSetups; k++ {
		if j != nil {
			if err := j.Close(); err != nil {
				return p, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return p, err
			}
		}
		seed := cfg.seed
		if k < gridSetups-1 {
			seed = xrand.New(cfg.seed).Split(fmt.Sprintf("setup-%d-%d", i, k)).Uint64()
		}
		t0 := time.Now()
		var err error
		if r, j, train, err = gridSetup(seed, dir, workers, sink, tr); err != nil {
			return p, err
		}
		p.setupS = append(p.setupS, since(t0))
	}
	defer j.Close()
	if err := resetPeakRSS(); err != nil {
		return p, err
	}
	g0 := time.Now()
	_, err := r.RunPanel(gridDataset, models.ConvNet, faultinject.Mislabel, gridRates)
	p.gridS = since(g0)
	if err != nil {
		return p, err
	}
	if p.rssMB, err = peakRSSMB(); err != nil {
		return p, err
	}
	if err := j.Close(); err != nil {
		return p, err
	}
	for _, f := range r.Failures() {
		p.failures = append(p.failures, f.Error())
	}
	// Every journal record must verify against its prediction
	// checkpoint; the digest covers every cell's predictions.
	recs, err := obs.Load(dir, func(line int, err error) {
		p.failures = append(p.failures, fmt.Sprintf("journal line %d: %v", line, err))
	})
	if err != nil {
		return p, err
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
	h := sha256.New()
	for _, rec := range recs {
		pred, err := obs.LoadPred(dir, rec)
		if err != nil {
			p.failures = append(p.failures, err.Error())
			continue
		}
		fmt.Fprintf(h, "%s=%s\n", rec.Key, obs.Digest(pred))
	}
	p.cells = len(recs)
	p.trainRows = p.cells * train.Len() * gridEpochs
	p.digest = fmt.Sprintf("%x", h.Sum(nil))
	return p, nil
}

// runGrid runs grid passes until the measured time is spent. Each pass
// is set up from scratch, so setup_s is a median over every set-up of
// every pass.
func runGrid(cfg config) (*result, error) {
	workers := runtime.NumCPU()
	parallel.SetBudget(workers)
	// tdfmbench's sink: journal warnings reach standard error.
	prod := obs.SinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindJournalError {
			fmt.Fprintf(cfg.log, "perfbench: journal warning: %v\n", e.Err)
		}
	})
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		defer func() {
			if err := tr.write(cfg.traceOut); err != nil {
				fmt.Fprintf(cfg.log, "perfbench: writing spans: %v\n", err)
			}
		}()
	}

	// A traced run follows its first, cold pass with alternating traced
	// (odd) and untraced (even) passes, so trace.overhead_frac compares
	// warm passes run side by side. The span window, the memory counters
	// and the sampler start with pass 1.
	var (
		passes        []gridPass
		traced, plain []float64
		from          int64
		smp           *sampler
		m0            memSnap
	)
	start := time.Now()
	for i := 0; ; i++ {
		tracedPass := tr != nil && i%2 == 1
		sink := obs.Sink(prod)
		if tracedPass {
			sink = obs.Sinks{prod, tr.generation()}
		}
		if tr != nil && i == 1 {
			from, smp, m0 = tr.now(), startSampler(), takeMemSnap()
		}
		p, err := runGridPass(cfg, i, workers, sink, tr)
		if err != nil {
			if smp != nil {
				smp.finish()
			}
			return nil, fmt.Errorf("grid pass %d: %w", i, err)
		}
		fmt.Fprintf(cfg.log, "perfbench: grid pass %d: set-ups %.4f s, grid %.3f s, %d cells, traced %v, digest %s\n",
			i, p.setupS, p.gridS, p.cells, tracedPass, p.digest)
		passes = append(passes, p)
		switch {
		case tracedPass:
			traced = append(traced, p.gridS)
		case tr != nil && i > 0:
			plain = append(plain, p.gridS)
		}
		// Start another pass only if it is expected to end in time; a
		// traced run needs one traced and one warm untraced pass.
		if since(start)+sum(p.setupS)+p.gridS > cfg.seconds && (tr == nil || i >= 2) {
			break
		}
	}

	correct, attempted, failed := true, 0, 0
	var setups, grids, rss []float64
	rows := 0
	for _, p := range passes {
		setups = append(setups, p.setupS...)
		grids = append(grids, p.gridS)
		rss = append(rss, p.rssMB)
		rows += p.trainRows
		attempted += p.cells
		failed += len(p.failures)
		if len(p.failures) > 0 || p.digest != passes[0].digest || p.cells != 13 {
			correct = false
		}
		for _, f := range p.failures {
			fmt.Fprintf(cfg.log, "perfbench: cell failure: %s\n", f)
		}
	}
	fmt.Fprintf(cfg.log, "perfbench: prediction digest %s over %d passes\n", passes[0].digest, len(passes))

	if tr == nil {
		return &result{
			Correct: correct, Attempted: attempted, Failed: failed,
			Metrics: complete(endToEnd, map[string]float64{
				"setup_s":     quantile(setups, 0.5),
				"p50_ms":      1000 * quantile(grids, 0.5),
				"rows_per_s":  float64(rows) / sum(grids),
				"peak_rss_mb": quantile(rss, 0.5),
			}),
		}, nil
	}

	m1, to := takeMemSnap(), tr.now()
	inuse := mean(smp.finish())
	spans := tr.window(from, to)
	m := make(map[string]float64)
	cells := pairs(spans, "cell-start", "cell-finish")
	byTech := make(map[string][]float64)
	for key, d := range cells {
		// Keys read "<pass>/<dataset>|<technique>|…".
		if parts := strings.Split(key, "|"); len(parts) > 1 {
			byTech[parts[1]] = append(byTech[parts[1]], d/1000)
		}
	}
	for tech, ds := range byTech {
		m["experiment.cell_s."+tech] = mean(ds)
	}
	hits, misses := float64(count(spans, "cache-hit")), float64(count(spans, "cache-miss"))
	m["experiment.cells_trained"] = float64(count(spans, "cell-finish")) / float64(len(traced))
	m["experiment.cache_hit_frac"] = frac(hits, hits+misses)
	m["experiment.dataset_ms"] = mean(durations(tr.window(0, to), "dataset", ""))
	m["parallel.inuse.mean"] = inuse
	memMetrics(m1.minus(m0), attempted-passes[0].cells, m)
	m["trace.overhead_frac"] = quantile(traced, 0.5)/quantile(plain, 0.5) - 1
	m["fail_frac"] = frac(float64(failed), float64(attempted))
	return &result{
		Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: complete(perLayer, m),
	}, nil
}
