// Command perfbench is the repository's end-to-end benchmark. It drives
// the system only from outside, through the same public functions that
// `tdfmserve -model` and `tdfmbench -artifacts` call, and times those
// calls.
//
//	bash perfbench/run.sh --workload light|ensemble|grid --seed N --seconds S --trace 0|1
//
// Every run checks the program's outputs and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 the same phases run with timing wrappers, an obs.Sink and
// samplers installed, and the metrics are the per-layer ones (perLayer).
// Human-readable progress, the host fingerprint and phase counts go to
// standard error. README.md in this directory records why each workload
// exists and which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run prints, with their units.
// Every workload prints every one of them; README.md gives each its
// meaning per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// config is one invocation's parsed flags.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// work is a scratch directory inside the working tree (registries,
	// journals); it is removed when the run ends.
	work string
	// traceOut receives the span log of a traced run.
	traceOut string
	log      io.Writer
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*result, error){
	"light":    func(cfg config) (*result, error) { return runServing(cfg, lightSpec) },
	"ensemble": func(cfg config) (*result, error) { return runServing(cfg, ensembleSpec) },
	"grid":     runGrid,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result line. It
// returns the process exit code: 0 once a result was printed, 1 when the
// workload could not run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: light|ensemble|grid")
		seed     = fs.Uint64("seed", 1, "seed for the dataset, training, request rows, row mix and arrivals")
		seconds  = fs.Float64("seconds", 30, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want light, ensemble or grid)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		work:     work,
		traceOut: filepath.Join(base, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed)),
		log:      stderr,
	}
	fmt.Fprintf(stderr, "perfbench: %s\n", hostFingerprint())
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// hostFingerprint names what the numbers depend on: Go version,
// GOMAXPROCS, GOAMD64 level and CPU model.
func hostFingerprint() string {
	amd64 := "unset"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" {
				amd64 = s.Value
			}
		}
	}
	return fmt.Sprintf("host go=%s GOMAXPROCS=%d NumCPU=%d GOAMD64=%s cpu=%q",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), amd64, cpuModel())
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS returns freed heap to the OS and restarts the VmHWM
// high-water mark at the current resident set size.
func resetPeakRSS() error {
	// Two collections: pooled buffers survive the first in sync.Pool's
	// victim cache.
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
