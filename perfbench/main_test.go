package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every workload so that a full run takes well under a
// second.
func tinyConfig(workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.Workload, cfg.Seed, cfg.Trace = workload, 1, trace
	cfg.Duration = 200 * time.Millisecond
	cfg.Forkjoin.TreeDepth, cfg.Forkjoin.SkewN, cfg.Forkjoin.WarmupRuns = 6, 1024, 1
	cfg.Serve.Rate, cfg.Serve.WarmupRounds = 200, 1
	for i := range cfg.Serve.Mix {
		cfg.Serve.Mix[i].N = map[string]int{"fib": 12, "rrm": 2000, "heat2d": 32, "quicksort": 2000, "matmul": 16}[cfg.Serve.Mix[i].Name]
	}
	cfg.Figures.Benches, cfg.Figures.SizeFactors = []string{"rrm"}, []float64{0.25}
	cfg.Figures.DigestSeed = 0 // the committed digest is for the full sweep
	return cfg
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

func runTiny(t *testing.T, cfg config) (int, result, string) {
	t.Helper()
	cfg.SpanDir = t.TempDir()
	var stdout, stderr bytes.Buffer
	code := report(cfg, workloads[cfg.Workload], &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, stderr.String())
	}
	return code, r, stderr.String()
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range []string{"forkjoin", "serve", "figures"} {
		for _, trace := range []bool{false, true} {
			code, r, stderr := runTiny(t, tinyConfig(w, trace))
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, %+v; stderr %s", w, trace, code, r, stderr)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got []string
			for name := range r.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(names(want), ",") {
				t.Fatalf("%s trace=%v: metrics %v, want %v", w, trace, got, names(want))
			}
			if !trace {
				for name, v := range r.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, v.Value)
					}
				}
			}
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
	}
}

func TestWrongOutputFails(t *testing.T) {
	serve := tinyConfig("serve", false)
	serve.Serve.inject = 1
	figs := tinyConfig("figures", false)
	figs.Figures.DigestSeed, figs.Figures.Digest = figs.Seed, "0000000000000000"
	for name, cfg := range map[string]config{"job body error": serve, "wrong digest": figs} {
		code, r, stderr := runTiny(t, cfg)
		if code == 0 || r.Correct || r.Failed < 1 {
			t.Errorf("%s: exit %d, %+v; want a failure and a non-zero exit", name, code, r)
		}
		if !strings.Contains(stderr, "wrong") {
			t.Errorf("%s: stderr %q does not describe the wrong output", name, stderr)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "forkjoin", "-trace", "2"},
		{"-workload", "forkjoin", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := l.reserve()
	l.record(0, root, 1, "server.queue", at(0), at(4))
	l.record(0, root, 1, "kernels.body", at(3), at(6)) // overlaps the queue span
	l.record(0, root, 1, "loadgen.build", at(-5), at(-1))
	l.record(root, 0, 1, "client.job", at(0), at(10))
	self := l.selfTimes()
	want := map[string]int64{"client": 4e6, "server": 4e6, "kernels": 3e6, "loadgen": 4e6}
	for layer, ns := range want {
		if self[layer] != ns {
			t.Errorf("self time of %s = %d ns, want %d", layer, self[layer], ns)
		}
	}
}
