package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"vrdann/internal/adapt"
	"vrdann/internal/codec"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/video"
)

// testModels builds untrained networks: their masks are meaningless but
// deterministic, which is all the identity checks need, and they cost no
// training time under -race.
func testModels(t *testing.T) *models {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, nn.NewFCN(rng, 1, nnlWidth)); err != nil {
		t.Fatal(err)
	}
	nns := nn.NewRefineNet(rng, 8)
	quant, err := nn.NewQuantRefineNet(nns, adapt.SandwichCalibration(frameW, frameH, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	return &models{nnl: nnlFactory{params: buf.Bytes()}, nns: nns, quant: quant}
}

// smallWorkload shrinks a workload to two 8-frame chunks per content, with
// two sessions per content: each of its first two profiles is listed twice,
// and a profile renders the same chunks for every session that lists it.
func smallWorkload(t *testing.T, name string) *workload {
	t.Helper()
	base, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	p := base.profiles[:2]
	w.profiles = []video.SeqProfile{p[0], p[1], p[0], p[1]}
	w.chunkFrames = gopFrames
	w.chunks = 2
	return &w
}

// serveSmall serves w once, traced or not, and fails the test unless every
// checked mask equals the standalone reference.
func serveSmall(t *testing.T, w *workload, m *models, content [][]*chunk, traced bool) *runStats {
	t.Helper()
	s, err := startServer(w, m, traced)
	if err != nil {
		t.Fatal(err)
	}
	st, err := measure(w, s, content, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if msg := st.check(); msg != "" {
		t.Fatal(msg)
	}
	if st.served == 0 {
		t.Fatal("nothing was served")
	}
	return st
}

func buildSmall(t *testing.T, w *workload, m *models) [][]*chunk {
	t.Helper()
	content, err := buildContent(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := buildReference(w, m, content); err != nil {
		t.Fatal(err)
	}
	return content
}

// TestSessionsServeOwnNNLClones serves four sessions on two workers
// without batching, so NN-L runs on several workers at once. Run under
// -race: a shared FCN would race on its convolution scratch.
func TestSessionsServeOwnNNLClones(t *testing.T) {
	m := testModels(t)
	if a, b := m.nnl.fresh(), m.nnl.fresh(); a.Net == b.Net || a.Name() != b.Name() {
		t.Fatal("NN-L clones must be distinct networks with one label")
	}
	w := smallWorkload(t, "archive")
	serveSmall(t, w, m, buildSmall(t, w, m), false)
}

// TestTracedRunServesIdenticalMasks serves the same inputs untraced and
// traced through the cache-and-batching stack, two viewers per content:
// both runs must equal the same reference bit for bit, so the timing
// wrapper changes no mask and no cache fingerprint.
func TestTracedRunServesIdenticalMasks(t *testing.T) {
	m := testModels(t)
	w := smallWorkload(t, "live")
	w.checkAll = true
	w.config = func(m *models) serve.Config {
		return serve.Config{NNS: m.nns, MaxBatch: 2, CacheBytes: 1 << 20}
	}
	content := buildSmall(t, w, m)
	serveSmall(t, w, m, content, false)
	st := serveSmall(t, w, m, content, true)
	if len(st.nnl.calls) == 0 {
		t.Fatal("traced run recorded no NN-L call")
	}
	if st.report.Counters["cache/hits"] == 0 {
		t.Fatal("traced viewers of one content never shared a cache entry")
	}
}

// TestTimedSegmenterKeepsBatchCapability checks that the wrapper forwards
// SegmentBatch exactly when the wrapped segmenter has it.
func TestTimedSegmenterKeepsBatchCapability(t *testing.T) {
	rec := &nnlRecorder{}
	if _, ok := timed(testModels(t).nnl.fresh(), rec).(segment.BatchSegmenter); ok {
		t.Fatal("wrapper of a per-frame segmenter claims SegmentBatch")
	}
	inner := &segment.ThresholdSegmenter{}
	seg, ok := timed(inner, rec).(segment.BatchSegmenter)
	if !ok {
		t.Fatal("wrapper of a batch segmenter lost SegmentBatch")
	}
	if seg.Name() != inner.Name() {
		t.Fatalf("wrapper renamed the segmenter: %q", seg.Name())
	}
	v := video.MakeSequence(video.SuiteProfiles[0], frameW, frameH, 2)
	got := seg.SegmentBatch(v.Frames, []int{0, 1})
	for i, f := range v.Frames {
		if !bytes.Equal(got[i].Pix, inner.Segment(f, i).Pix) {
			t.Fatalf("frame %d: batched mask differs", i)
		}
	}
	if len(rec.calls) != 2 {
		t.Fatalf("recorded %d frames, want 2", len(rec.calls))
	}
}

// TestGateCatchesWrongMask feeds the correctness gate a served mask that
// differs from the reference in one pixel.
func TestGateCatchesWrongMask(t *testing.T) {
	w, err := lookupWorkload("archive")
	if err != nil {
		t.Fatal(err)
	}
	ref := &video.Mask{W: 2, H: 1, Pix: []uint8{0, 1}}
	ch := &chunk{types: []codec.FrameType{codec.IFrame}, gt: []*video.Mask{ref}, ref: []*video.Mask{ref}, refF: []float64{1}}
	for _, tc := range []struct {
		pix  []uint8
		pass bool
	}{{[]uint8{0, 1}, true}, {[]uint8{1, 1}, false}} {
		st := &runStats{report: &obs.Report{Counters: map[string]int64{}}}
		served := &video.Mask{W: 2, H: 1, Pix: tc.pix}
		st.record(w, 0, ch, []serve.FrameResult{{Type: codec.IFrame, Mask: served}}, nil, 0)
		if msg := st.check(); (msg == "") != tc.pass {
			t.Errorf("mask %v: gate said %q, want pass=%t", tc.pix, msg, tc.pass)
		}
	}
}

// TestBenchmarkJSONMatchesSchema keeps BENCHMARK.json in step with the
// workload and metric tables the command reports.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, command has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, command has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
