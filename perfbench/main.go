// Command perfbench is the repository's serving benchmark. It trains the
// real networks in-process — NN-L is the FCN of core.TrainNNL behind a
// segment.NetSegmenter, NN-S comes from core.TrainNNS as float or int8 —
// and drives internal/serve.Server with one of two traffic mixes (archive,
// live) rendered from the seed. Every run checks the
// served masks against a standalone reference and prints its metrics by
// name with their units, the last line being one JSON object.
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) serves the same workload twice, untraced then traced — a
// timing wrapper around every session's NN-L and a span hook on the
// server's obs collector — and reports the per-layer metrics: the
// program's own obs counters read through Server.Obs and Session.Metrics,
// plus single-call timings of each package's public functions. No tracing
// code runs inside the program.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload archive --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"vrdann/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "archive", "traffic mix: archive or live")
	seed := fs.Int64("seed", 1, "input seed: the same seed renders the same content")
	seconds := fs.Float64("seconds", 10, "measured serving time")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// bench runs one workload end to end: set-up, inputs, reference, the
// measured serving run(s) and the correctness gate.
func bench(w *workload, seed int64, seconds time.Duration, traced bool, out io.Writer) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	content, err := buildContent(w, seed)
	if err != nil {
		return nil, err
	}
	// Set-up is repeated so setup_s is a median; the traced run does not
	// report it and sets up once.
	setups := 3
	if traced {
		setups = 1
	}
	var first, m *models
	var srv *server
	var setupS []float64
	deterministic := true
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		mi, err := train()
		if err != nil {
			return nil, err
		}
		s, err := startServer(w, mi, false)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if first == nil {
			first = mi
		} else if same, err := first.sameWeights(mi); err != nil {
			return nil, err
		} else if !same {
			deterministic = false
		}
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		m, srv = mi, s
	}
	if err := buildReference(w, m, content); err != nil {
		return nil, err
	}
	printHost(out, w, seed, seconds, traced, srv.srv.Load().Workers)

	res := &result{Metrics: map[string]value{}}
	vals := map[string]float64{}
	var runs []*runStats
	if !traced {
		st, err := measure(w, srv, content, seconds)
		if err != nil {
			return nil, err
		}
		runs = append(runs, st)
		endToEndMetrics(st, setupS, vals, out)
	} else {
		plain, err := measure(w, srv, content, seconds/2)
		if err != nil {
			return nil, err
		}
		ts, err := startServer(w, m, true)
		if err != nil {
			return nil, err
		}
		st, err := measure(w, ts, content, seconds/2)
		if err != nil {
			return nil, err
		}
		runs = append(runs, plain, st)
		for _, r := range runs {
			fmt.Fprintf(out, "# pass (traced=%t): attempted %d, served %d, dropped %d, failed %d in %.3f s, cpu %.3f s\n",
				r.nnl != nil, r.attempted, r.served, r.dropped, r.failed, r.wall.Seconds(), r.cpu.Seconds())
		}
		perLayerMetrics(plain, st, vals)
		if err := profileLayers(w, m, content, vals); err != nil {
			return nil, err
		}
	}

	res.Correct = deterministic
	if !deterministic {
		fmt.Fprintln(out, "# FAIL: repeated set-ups trained different weights")
	}
	for _, st := range runs {
		res.Attempted += st.attempted
		res.Failed += st.failed
		if msg := st.check(); msg != "" {
			res.Correct = false
			fmt.Fprintln(out, "# FAIL:", msg)
		}
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", s.Name, v)
		}
		res.Metrics[s.Name] = value{v, s.Unit}
		note := ""
		if s.Unit == "model_us" {
			note = "  (sim/npu model, not measured)"
		}
		fmt.Fprintf(out, "%-34s %16.6g %s%s\n", s.Name, v, s.Unit, note)
	}
	return res, nil
}

// check is the correctness gate of one measured run: every compared mask
// equals the reference, and every attempted frame is accounted for — served,
// dropped or failed — consistently with the server's own counters.
func (st *runStats) check() string {
	if st.mismatches > 0 {
		return fmt.Sprintf("%d frames differ from the reference; first: %s", st.mismatches, st.mismatch)
	}
	if st.attempted < 1 {
		return "no frame was attempted"
	}
	if st.served+st.dropped+st.failed != st.attempted {
		return fmt.Sprintf("served %d + dropped %d + failed %d != attempted %d", st.served, st.dropped, st.failed, st.attempted)
	}
	if drops := st.report.Counters["drops"]; drops != int64(st.dropped) {
		return fmt.Sprintf("server counted %d drops, results carry %d", drops, st.dropped)
	}
	return ""
}

// endToEndMetrics derives the user-visible figures of an untraced run.
func endToEndMetrics(st *runStats, setupS []float64, vals map[string]float64, out io.Writer) {
	n := len(st.latMS)
	q := supportedPercentile(n)
	fmt.Fprintf(out, "# latency: %d served frames; highest percentile with >= 10 samples beyond it: p%g = %.3f ms\n",
		n, 100*q, percentile(st.latMS, q))
	fmt.Fprintf(out, "# frames: attempted %d, served %d, dropped %d, failed %d in %.3f s, cpu %.3f s\n",
		st.attempted, st.served, st.dropped, st.failed, st.wall.Seconds(), st.cpu.Seconds())
	fmt.Fprintf(out, "# setup_s samples: %v\n", setupS)
	att := float64(st.attempted)
	vals["setup_s"] = median(setupS)
	vals["fps"] = float64(st.served) / st.wall.Seconds()
	vals["latency_p50_ms"] = percentile(st.latMS, 0.5)
	vals["latency_p99_ms"] = percentile(st.latMS, 0.99)
	vals["slo_ratio"] = float64(st.sloMet) / att
	vals["mean_f"] = st.fSum / att
	vals["success_ratio"] = float64(st.attempted-st.failed) / att
	vals["peak_rss_mb"] = percentile(st.memMB, 1)
}

// perLayerMetrics derives the per-layer figures from the traced run st and
// the untraced run plain that preceded it on the same inputs.
func perLayerMetrics(plain, st *runStats, vals map[string]float64) {
	stages := stageTotals(st.sessions)
	vals["codec.decode_anchor_us"] = stages["decode/anchor"].meanUS()
	vals["codec.decode_b_us"] = stages["decode/b-mv"].meanUS()

	var calls []float64
	var busy time.Duration
	for _, d := range st.nnl.calls {
		calls = append(calls, ms(d))
		busy += d
	}
	vals["nnl.calls"] = float64(len(calls))
	vals["nnl.busy_ms"] = ms(busy)
	vals["nnl.call_ms_p50"] = median(calls)

	r := st.report
	ctr := func(name string) float64 { return float64(r.Counters[name]) }
	vals["batch.items"] = ctr("batch-items")
	vals["batch.flush_full"] = ctr("batch-flush-full")
	vals["batch.flush_timer"] = ctr("batch-flush-timer")
	vals["batch.flush_stall"] = ctr("batch-flush-stall")
	vals["batch.occupancy_mean"] = 0
	for _, h := range r.Hists {
		if h.Name == "batch-occupancy" {
			vals["batch.occupancy_mean"] = h.Mean
		}
	}
	vals["batch.wait_ms_p50"] = median(st.waits.ms)
	hits, misses := ctr("cache/hits"), ctr("cache/misses")
	vals["cache.hits"] = hits
	vals["cache.misses"] = misses
	vals["cache.hit_ratio"] = 0
	if hits+misses > 0 {
		vals["cache.hit_ratio"] = hits / (hits + misses)
	}
	vals["cache.fill_aborts"] = ctr("cache/fill-aborts")
	vals["cache.evictions"] = ctr("cache/evictions")
	for _, s := range []string{"full", "refine", "recon", "skip"} {
		vals["qos."+s] = ctr("qos/" + s)
	}
	vals["qos.deadline_overruns"] = ctr("qos/deadline-overruns")

	vals["serve.submit_us_p50"] = median(st.submitUS)
	vals["serve.queue_wait_ms_p50"] = queueWaitP50(st)
	vals["serve.pending_max"] = 0
	for _, g := range r.Gauges {
		if g.Name == "pending-frames" {
			vals["serve.pending_max"] = float64(g.Max)
		}
	}
	vals["serve.drops"] = ctr("drops")
	vals["serve.rejects"] = ctr("rejects")
	vals["process.cpu_util"] = st.cpu.Seconds() / (st.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))

	vals["gen.late_ms_max"] = percentile(st.lateMS, 1)
	vals["gen.late_ms_p99"] = percentile(st.lateMS, 0.99)
	// Tracing overhead as CPU time per served frame, which an open loop's
	// fixed offered rate does not mask the way it masks throughput.
	perFrame := func(s *runStats) float64 { return s.cpu.Seconds() / float64(s.served) }
	vals["trace.overhead_pct"] = 100 * (perFrame(st)/perFrame(plain) - 1)
}

// queueWaitP50 estimates the median time a served frame spent queued in
// the server: its latency from arrival minus its own service time. The
// program records service spans per stage, not per frame, so a frame's
// service is its session's mean for the frame's kind — decode plus NN-L for
// anchors, decode plus reconstruction plus NN-S for B-frames — spreading
// cache hits and degraded rungs over the frames of that kind.
func queueWaitP50(st *runStats) float64 {
	type svc struct{ anchor, b float64 }
	means := make([]svc, len(st.sessions))
	for i, rep := range st.sessions {
		t := stageTotals([]*obs.Report{rep})
		if n := t["decode/anchor"].count; n > 0 {
			means[i].anchor = ms(time.Duration(t["decode/anchor"].total+t["nn-l"].total)) / float64(n)
		}
		if n := t["decode/b-mv"].count; n > 0 {
			means[i].b = ms(time.Duration(t["decode/b-mv"].total+t["reconstruct"].total+t["nn-s"].total)) / float64(n)
		}
	}
	waits := make([]float64, 0, len(st.frames))
	for _, f := range st.frames {
		s := means[f.session].b
		if f.anchor {
			s = means[f.session].anchor
		}
		waits = append(waits, math.Max(0, f.serverMS-s))
	}
	return median(waits)
}

// printHost records the host and the run's parameters, so runs from
// different commits can be compared.
func printHost(out io.Writer, w *workload, seed int64, seconds time.Duration, traced bool, workers int) {
	host := map[string]any{
		"workload":    w.name,
		"seed":        seed,
		"seconds":     seconds.Seconds(),
		"traced":      traced,
		"loop":        map[bool]string{true: "open", false: "closed"}[w.open],
		"offered_fps": w.offeredFPS(),
		"sessions":    w.sessions(),
		"workers":     workers,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"commit":      commit(),
	}
	b, _ := json.Marshal(host) // a map of plain values always marshals
	fmt.Fprintf(out, "# host %s\n", b)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}
