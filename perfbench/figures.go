package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/parlab/adws/internal/figures"
	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/workload"
)

// figuresConfig is the figure-regeneration workload: one caller
// regenerating the paper's Fig. 16 on the simulator.
type figuresConfig struct {
	// Machine records the simulated machine, which is always TwoLevel16.
	Machine     string    `json:"machine"`
	SizeFactors []float64 `json:"size_factors"`
	Reps        int       `json:"reps"`
	// Benches restricts the benchmarks (nil: all seven).
	Benches []string `json:"benches,omitempty"`
	// Digest is the committed CSV digest of the figures for DigestSeed.
	Digest     string `json:"digest"`
	DigestSeed uint64 `json:"digest_seed"`
	// WarmupFactor is the single working-set factor of the set-up sweep.
	WarmupFactor float64 `json:"warmup_factor"`
}

func defaultFigures() figuresConfig {
	return figuresConfig{
		Machine: "twolevel16", SizeFactors: []float64{0.25, 4}, Reps: 2,
		Digest: "76ac044d14a13e9a", DigestSeed: 1,
		WarmupFactor: 0.25,
	}
}

func (fc figuresConfig) options(seed uint64) figures.Options {
	if seed == 0 {
		seed = 20190301 // figures.Options' own default for 0
	}
	return figures.Options{Machine: topology.TwoLevel16(), SizeFactors: fc.SizeFactors,
		Reps: fc.Reps, Seed: seed, Benches: fc.Benches}
}

// digest hashes every figure's id and CSV.
func digest(figs []figures.Figure) string {
	var b bytes.Buffer
	for _, f := range figs {
		fmt.Fprintf(&b, "%s\n", f.ID)
		f.CSV(&b)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

func runFigures(cfg config) (outcome, error) {
	fc := cfg.Figures
	opts := fc.options(cfg.Seed)
	setup := func() (struct{}, error) {
		warm := opts
		warm.SizeFactors = []float64{fc.WarmupFactor}
		figures.Fig16(warm)
		return struct{}{}, nil
	}
	_, setupS, err := repeatSetup(setupRepeats, setup, func(struct{}) {})
	if err != nil {
		return outcome{}, err
	}
	d := cfg.Duration
	if cfg.Trace {
		d /= 2
	}

	// Each call's digest must equal the first call's, and for the digest
	// seed the committed reference.
	want := ""
	if cfg.Seed == fc.DigestSeed {
		want = fc.Digest
	}
	out := outcome{e2e: metrics{}, layer: metrics{}}
	var lat []float64
	var first []figures.Figure
	ph := startPhase()
	for time.Since(ph.start) < d {
		t0 := time.Now()
		figs := figures.Fig16(opts)
		lat = append(lat, ms(time.Since(t0)))
		got := digest(figs)
		if first == nil {
			first = figs
			if want == "" {
				want = got
			}
		}
		out.attempted++
		if got != want {
			out.fail("Fig16 call %d: CSV digest %s, want %s", len(lat), got, want)
		}
	}
	ps := ph.end()
	out.e2e["setup_s"] = setupS
	out.e2e["op_p50_ms"] = median(lat)
	out.e2e["op_p90_ms"] = quantile(lat, 0.9)
	ps.common(len(lat), out.e2e, out.layer)
	if !cfg.Trace {
		return out, nil
	}

	// Traced run: replay the same sweep points call by call.
	spans := newSpanLog()
	var sweeps, sweepMS, runMS []float64
	var tasks, accesses int64
	var engineNS int64
	rph := startPhase()
	for len(sweeps) == 0 || time.Since(rph.start) < d {
		rp := replay(fc, cfg.Seed, spans, int64(len(sweeps)+1))
		sweeps = append(sweeps, float64(rp.engineRuns))
		sweepMS = append(sweepMS, ms(rp.wall))
		runMS = append(runMS, rp.runMS...)
		tasks += rp.tasks
		accesses += rp.accesses
		engineNS += int64(rp.engine)
		out.attempted++
		if !sameSeries(first, rp.figs) {
			out.fail("replayed sweep %d differs from figures.Fig16", len(sweeps))
		}
	}
	rps := rph.end()
	spans.ops = int64(len(sweeps))
	out.spans = spans
	spans.selfMetrics(out.layer)
	engineS := float64(engineNS) / 1e9
	l := out.layer
	l["sim.run_ms_p50"] = median(runMS)
	l["sim.tasks_per_s"] = ratio(float64(tasks), engineS)
	l["sim.accesses_per_s"] = ratio(float64(accesses), engineS)
	l["sim.allocs_per_task"] = ratio(float64(rps.mallocs), float64(tasks))
	l["figures.engine_runs"] = sweeps[0]
	l["figures.orchestration_s"] = median(lat)/1e3 - engineS/float64(len(sweeps))
	overhead(median(lat), median(sweepMS), l)
	return out, nil
}

// replayed is one replayed Fig. 16 sweep.
type replayed struct {
	figs            []figures.Figure // series values only
	wall, engine    time.Duration
	runMS           []float64
	engineRuns      int64
	tasks, accesses int64
}

// replay runs the simulator calls figures.Fig16 makes — build each
// instance, prepare it, run every scheduler for Reps repetitions and the
// serial baseline — timing each call as a span.
func replay(fc figuresConfig, seed uint64, spans *spanLog, req int64) replayed {
	o := fc.options(seed)
	var rp replayed
	root := spans.reserve()
	start := time.Now()
	agg := float64(o.Machine.AggregateCapacity(1))
	for _, reg := range workload.Registry {
		if !selected(fc.Benches, reg.Name) {
			continue
		}
		fig := figures.Figure{ID: "fig16/" + reg.Name, Series: make([]figures.Series, len(sim.Modes))}
		for _, f := range o.SizeFactors {
			size := roundPow2(int64(f * agg))
			t0 := time.Now()
			build, _ := workload.ByName(reg.Name)
			inst := build(size, o.Seed)
			spans.record(0, root, req, "workload.build", t0, time.Now())
			for i, mode := range sim.Modes {
				t0 := time.Now()
				eng := sim.NewEngine(sim.Config{Machine: o.Machine, Mode: mode, Seed: o.Seed, NUMA: sim.Interleave})
				body, _ := inst.Prepare(eng.Memory())
				spans.record(0, root, req, "sim.prepare", t0, time.Now())
				var res sim.RunResult
				for r := 0; r < o.Reps; r++ {
					t0 := time.Now()
					res = eng.Run(body)
					d := time.Since(t0)
					spans.record(0, root, req, "sim.engine_run", t0, t0.Add(d))
					rp.engine += d
					rp.runMS = append(rp.runMS, ms(d))
					rp.engineRuns++
					rp.tasks += res.Tasks
					rp.accesses += res.Accesses
				}
				fig.Series[i].Y = append(fig.Series[i].Y, res.Time)
			}
			t0 = time.Now()
			serial := sim.RunSerial(o.Machine, sim.CostModel{}, sim.Node0, o.Reps, func(mem *sim.Memory) sim.Body {
				body, _ := inst.Prepare(mem)
				return body
			})
			d := time.Since(t0)
			spans.record(0, root, req, "sim.serial", t0, t0.Add(d))
			rp.engine += d
			for i := range sim.Modes {
				ys := fig.Series[i].Y
				t := ys[len(ys)-1]
				if reg.Name == "matmul" && t > 0 {
					ys[len(ys)-1] = inst.FLOPs / t
				} else {
					ys[len(ys)-1] = sim.RunResult{Time: t}.Speedup(serial.Time)
				}
			}
		}
		rp.figs = append(rp.figs, fig)
	}
	rp.wall = time.Since(start)
	spans.record(root, 0, req, "figures.sweep", start, start.Add(rp.wall))
	return rp
}

// sameSeries reports whether the replayed values equal Fig16's exactly.
func sameSeries(want, got []figures.Figure) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].ID != got[i].ID || len(want[i].Series) != len(got[i].Series) {
			return false
		}
		for j, s := range want[i].Series {
			g := got[i].Series[j].Y
			if len(s.Y) != len(g) {
				return false
			}
			for k := range s.Y {
				if s.Y[k] != g[k] {
					return false
				}
			}
		}
	}
	return true
}

func selected(benches []string, name string) bool {
	if len(benches) == 0 {
		return true
	}
	for _, b := range benches {
		if b == name {
			return true
		}
	}
	return false
}

// roundPow2 rounds to the nearest power of two, as figures.Options does
// for the working-set sweep.
func roundPow2(v int64) int64 {
	if v < 2 {
		return 1
	}
	lo := int64(1)
	for lo*2 <= v {
		lo *= 2
	}
	if float64(v)/float64(lo) < float64(2*lo)/float64(v) {
		return lo
	}
	return 2 * lo
}
