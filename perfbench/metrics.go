package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vrdann/internal/nn"
)

// metric is one reported figure. The tables below are the benchmark's
// schema; BENCHMARK.json at the repository root mirrors them, and
// TestBenchmarkJSONMatchesSchema keeps the two in step.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the serving stack sees; every untraced run
// reports all of them. Every timing carries the largest bound allowed,
// 0.25: on a shared 2-vCPU virtual machine the NN kernels' speed changes by
// tens of percent from one minute to the next, and the medians of two
// ten-run sets of the same code have differed by up to a third.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"fps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"slo_ratio", "ratio", "higher", 0.25},
	{"mean_f", "F", "higher", 0.1},
	{"success_ratio", "ratio", "higher", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists the traced run's figures, grouped by the package they
// measure.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{Name: "codec.decode_anchor_us", Unit: "us", Better: "lower"},
		{Name: "codec.decode_b_us", Unit: "us", Better: "lower"},
		{Name: "nnl.calls", Unit: "count", Better: "lower"},
		{Name: "nnl.busy_ms", Unit: "ms", Better: "lower"},
		{Name: "nnl.call_ms_p50", Unit: "ms", Better: "lower"},
	}
	for _, l := range fcnLayerNames() {
		ms = append(ms,
			metric{Name: "fcn." + l + ".us", Unit: "us", Better: "lower"},
			metric{Name: "fcn." + l + ".macs", Unit: "count", Better: "lower"},
			metric{Name: "fcn." + l + ".gmacs", Unit: "GMAC/s", Better: "higher"},
			metric{Name: "fcn." + l + ".bytes", Unit: "bytes", Better: "lower"},
			metric{Name: "fcn." + l + ".npu_model_us", Unit: "model_us", Better: "lower"},
		)
	}
	return append(ms,
		metric{Name: "fcn.allocs_per_forward", Unit: "count", Better: "lower"},
		metric{Name: "nns.float.forward_ms", Unit: "ms", Better: "lower"},
		metric{Name: "nns.int8.forward_ms", Unit: "ms", Better: "lower"},
		metric{Name: "nns.conv1.us", Unit: "us", Better: "lower"},
		metric{Name: "nns.conv2.us", Unit: "us", Better: "lower"},
		metric{Name: "nns.conv3.us", Unit: "us", Better: "lower"},
		metric{Name: "nns.gmacs", Unit: "GMAC/s", Better: "higher"},
		metric{Name: "nns.allocs_per_forward", Unit: "count", Better: "lower"},
		metric{Name: "segment.reconstruct_us", Unit: "us", Better: "lower"},
		metric{Name: "segment.sandwich_us", Unit: "us", Better: "lower"},
		metric{Name: "segment.refine_us", Unit: "us", Better: "lower"},
		metric{Name: "core.step_self_us", Unit: "us", Better: "lower"},
		metric{Name: "batch.items", Unit: "count", Better: "higher"},
		metric{Name: "batch.flush_full", Unit: "count", Better: "higher"},
		metric{Name: "batch.flush_timer", Unit: "count", Better: "lower"},
		metric{Name: "batch.flush_stall", Unit: "count", Better: "lower"},
		metric{Name: "batch.occupancy_mean", Unit: "items", Better: "higher"},
		metric{Name: "batch.wait_ms_p50", Unit: "ms", Better: "lower"},
		metric{Name: "cache.hits", Unit: "count", Better: "higher"},
		metric{Name: "cache.misses", Unit: "count", Better: "lower"},
		metric{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "cache.fill_aborts", Unit: "count", Better: "lower"},
		metric{Name: "cache.evictions", Unit: "count", Better: "lower"},
		metric{Name: "qos.full", Unit: "count", Better: "higher"},
		metric{Name: "qos.refine", Unit: "count", Better: "higher"},
		metric{Name: "qos.recon", Unit: "count", Better: "lower"},
		metric{Name: "qos.skip", Unit: "count", Better: "lower"},
		metric{Name: "qos.deadline_overruns", Unit: "count", Better: "lower"},
		metric{Name: "serve.submit_us_p50", Unit: "us", Better: "lower"},
		metric{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
		metric{Name: "serve.pending_max", Unit: "frames", Better: "lower"},
		metric{Name: "serve.drops", Unit: "count", Better: "lower"},
		metric{Name: "serve.rejects", Unit: "count", Better: "lower"},
		metric{Name: "process.cpu_util", Unit: "ratio", Better: "lower"},
		metric{Name: "gen.late_ms_max", Unit: "ms", Better: "lower"},
		metric{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower"},
		metric{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
}

// fcnLayerNames names the layers of the NN-L FCN in order, as the per-layer
// metrics spell them: a two-digit index and the layer type.
func fcnLayerNames() []string {
	net := nn.NewFCN(rand.New(rand.NewSource(0)), 1, nnlWidth)
	names := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		names[i] = fmt.Sprintf("%02d_%s", i, l.Name())
	}
	return names
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
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

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// supportedPercentile returns the highest of p50, p90, p99 and p99.9 that
// leaves at least ten samples above it in a sample of n — the tail the
// sample can actually show.
func supportedPercentile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}
