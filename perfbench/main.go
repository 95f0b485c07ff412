// Command perfbench is the repository benchmark. It drives the public adws
// API the way each kind of user does — a library caller (Pool.Run), a
// job-serving client (Cluster.Submit) and a researcher regenerating a
// figure (internal/figures) — checks every output, and prints one JSON
// result line with the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1). See README.md.
//
//	perfbench -workload forkjoin|serve|figures -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's full configuration; it is printed with every
// result so that two results can be compared.
type config struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Duration time.Duration `json:"duration_ns"`
	Trace    bool          `json:"trace"`
	// SpanDir receives the traced run's span file.
	SpanDir string `json:"span_dir,omitempty"`

	Forkjoin forkjoinConfig `json:"forkjoin"`
	Serve    serveConfig    `json:"serve"`
	Figures  figuresConfig  `json:"figures"`
}

func defaultConfig() config {
	return config{
		Forkjoin: defaultForkjoin(),
		Serve:    defaultServe(),
		Figures:  defaultFigures(),
	}
}

// outcome is what one workload run reports back to main.
type outcome struct {
	attempted, failed int64
	// invalid, when non-empty, says why the run does not measure what it
	// should (for example a growing open-loop backlog).
	invalid string
	// firstFailure describes the first wrong output, if any.
	firstFailure string
	e2e          metrics
	layer        metrics
	spans        *spanLog
}

type workloadFunc func(cfg config) (outcome, error)

var workloads = map[string]workloadFunc{
	"forkjoin": runForkjoin,
	"serve":    runServe,
	"figures":  runFigures,
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Workload, "workload", "", "workload: forkjoin, serve, figures")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&cfg.SpanDir, "spandir", ".bench_out", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.Workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (forkjoin, serve, figures), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	cfg.Duration = time.Duration(*seconds * float64(time.Second))
	cfg.Trace = *trace == 1
	return report(cfg, fn, stdout, stderr)
}

// report runs the workload and prints the host/config line, the traced
// run's self-time table, and the result line, which is always last.
func report(cfg config, fn workloadFunc, stdout, stderr io.Writer) int {
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 2
	}
	head, _ := json.Marshal(struct {
		Host   host   `json:"host"`
		Config config `json:"config"`
	}{hostFingerprint(), cfg})
	fmt.Fprintf(stdout, "# %s\n", head)

	ms := out.e2e.only(endToEnd)
	if cfg.Trace {
		ms = out.layer.only(perLayer)
		if out.spans != nil {
			out.spans.printSelfTimes(stdout)
			path := filepath.Join(cfg.SpanDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
			if err := out.spans.writeFile(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "# spans written to %s\n", path)
		}
	}
	correct := out.failed == 0 && out.invalid == ""
	if out.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations wrong; first: %s\n", out.failed, out.attempted, out.firstFailure)
	}
	if out.invalid != "" {
		fmt.Fprintf(stderr, "perfbench: run invalid: %s\n", out.invalid)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]valued `json:"metrics"`
	}{correct, out.attempted, out.failed, ms})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// fail counts one wrong output, keeping the first one's description.
func (o *outcome) fail(format string, args ...any) {
	if o.failed == 0 {
		o.firstFailure = fmt.Sprintf(format, args...)
	}
	o.failed++
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a bag of measured values by name.
type metrics map[string]float64

// only returns the listed metrics with units; a listed metric the run did
// not measure (its layer was idle on this workload) reads 0. Non-finite
// values, such as a tail latency past a failed job, are clamped to the
// largest float so the line stays valid JSON.
func (m metrics) only(defs []metricDef) map[string]valued {
	out := make(map[string]valued, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		out[d.name] = valued{v, d.unit}
	}
	return out
}

// host is the fingerprint recorded with every result.
type host struct {
	GOOS, GOARCH string
	NumCPU       int
	GOMAXPROCS   int
	GoVersion    string
	CPUModel     string
	Commit       string
}

func hostFingerprint() host {
	h := host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// quantile returns the q-quantile (nearest rank) of xs, sorting xs in
// place; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
