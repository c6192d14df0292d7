// Command vrdann runs the decoder-assisted recognition pipeline end to end
// on one benchmark sequence and reports accuracy, workload and simulated
// SoC performance.
//
// Usage:
//
//	vrdann [-seq name] [-res WxH] [-frames N] [-task segment|detect]
//	       [-bratio R] [-interval N] [-block 8|16] [-workers N]
//	       [-metrics] [-obsaddr host:port] [-list]
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"vrdann"
	"vrdann/internal/par"
)

func main() {
	seq := flag.String("seq", "cows", "benchmark sequence name (see -list)")
	res := flag.String("res", "96x64", "rendering resolution WxH")
	frames := flag.Int("frames", 48, "number of frames")
	task := flag.String("task", "segment", "recognition task: segment or detect")
	bratio := flag.Float64("bratio", 0, "forced B-frame ratio (0 = auto)")
	interval := flag.Int("interval", 0, "motion search interval n (0 = auto)")
	block := flag.Int("block", 8, "macro-block size (8 = H.265-like, 16 = H.264-like)")
	arith := flag.Bool("arith", false, "use the CABAC-style arithmetic entropy backend")
	deblock := flag.Bool("deblock", false, "enable the in-loop deblocking filter")
	bitrate := flag.Int("bitrate", 0, "rate-control target in bits per frame (0 = constant QP)")
	trace := flag.Bool("trace", false, "print the simulated VR-DANN-parallel execution timeline")
	workers := flag.Int("workers", 1, "pipeline worker count (> 1 runs B-frame NN-S on that many goroutines beside NN-L; detection has no NN-S; results are bit-identical)")
	metrics := flag.Bool("metrics", false, "collect per-stage latency/occupancy metrics and print the summary table")
	obsaddr := flag.String("obsaddr", "", "serve net/http/pprof and an expvar metrics snapshot on this address during the run")
	list := flag.Bool("list", false, "list available sequences and exit")
	flag.Parse()

	if *list {
		fmt.Println("segmentation suite:")
		for _, p := range vrdann.SuiteProfiles {
			fmt.Printf("  %-20s speed=%.1f deform=%.2f\n", p.Name, p.Speed, p.Deform)
		}
		fmt.Println("detection suite:")
		for _, p := range vrdann.DetectionProfiles {
			fmt.Printf("  %-20s speed=%.1f\n", p.Name, p.Speed)
		}
		return
	}

	var w, h int
	if _, err := fmt.Sscanf(*res, "%dx%d", &w, &h); err != nil {
		fail("bad -res %q: %v", *res, err)
	}
	profile, ok := findProfile(*seq)
	if !ok {
		fail("unknown sequence %q (use -list)", *seq)
	}
	vid := vrdann.MakeSequence(profile, w, h, *frames)

	enc := vrdann.DefaultEncoderConfig()
	enc.TargetBRatio = *bratio
	enc.SearchInterval = *interval
	enc.BlockSize = *block
	enc.Arithmetic = *arith
	enc.Deblock = *deblock
	enc.TargetBPF = *bitrate
	stream, err := vrdann.Encode(vid, enc)
	if err != nil {
		fail("encode: %v", err)
	}
	dec, err := vrdann.DecodeSideInfo(stream.Data)
	if err != nil {
		fail("decode: %v", err)
	}
	raw := vid.Len() * w * h
	fmt.Printf("sequence %q: %d frames %dx%d, %d bytes encoded (%.1fx), B ratio %.0f%%\n",
		vid.Name, vid.Len(), w, h, len(stream.Data), float64(raw)/float64(len(stream.Data)), 100*dec.BRatio())

	var collector *vrdann.Collector
	if *metrics || *obsaddr != "" {
		collector = vrdann.NewCollector()
	}
	if *obsaddr != "" {
		// Expose the live collector (expvar "vrdann" key) plus the standard
		// pprof handlers for the duration of the run.
		expvar.Publish("vrdann", expvar.Func(func() any { return collector.Snapshot() }))
		go func() {
			if err := http.ListenAndServe(*obsaddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "vrdann: obs endpoint: %v\n", err)
			}
		}()
		fmt.Printf("observability endpoint at http://%s/debug/vars and /debug/pprof/\n", *obsaddr)
	}

	switch *task {
	case "segment":
		runSegment(vid, enc, stream.Data, *workers, collector)
	case "detect":
		runDetect(vid, stream.Data, *workers, collector)
	default:
		fail("unknown -task %q", *task)
	}
	if *metrics {
		fmt.Printf("\nmetrics (workers: %d effective, %d requested):\n",
			par.EffectiveWorkers(*workers), *workers)
		fmt.Print(collector.Snapshot().Table())
	}

	params := vrdann.DefaultSimParams()
	wk := vrdann.NewWorkload(vid.Name, dec, params, 854, 480)
	fmt.Println("simulated SoC at 854x480:")
	for _, sc := range []vrdann.Scheme{
		vrdann.SchemeOSVOS, vrdann.SchemeFAVOS, vrdann.SchemeDFF,
		vrdann.SchemeVRDANNSerial, vrdann.SchemeVRDANNParallel,
	} {
		r := vrdann.Simulate(params, sc, wk)
		fmt.Printf("  %-18s %6.1f fps  %7.1f mJ  %4.3f TOP/frame  %d switches\n",
			sc, r.FPS(), r.Energy.TotalPJ()/1e9, r.TOPSPerFrame(), r.Switches)
	}
	if *trace {
		fmt.Println("\nVR-DANN-parallel timeline (#: busy):")
		_, tr := vrdann.SimulateTraced(params, vrdann.SchemeVRDANNParallel, wk)
		tr.Render(os.Stdout, 100)
	}
}

func runSegment(vid *vrdann.Video, enc vrdann.EncoderConfig, stream []byte, workers int, c *vrdann.Collector) {
	fmt.Println("training NN-S (2 epochs)...")
	nns, err := vrdann.TrainRefiner(vrdann.MakeTrainingSet(vid.Frames[0].W, vid.Frames[0].H, 16), enc, vrdann.DefaultTrainConfig())
	if err != nil {
		fail("train NN-S: %v", err)
	}
	nnl := vrdann.NewOracleSegmenter("NN-L", vid.Masks, 0.05, 3, 1)
	res, err := vrdann.NewPipeline(nnl, nns, vrdann.WithWorkers(workers), vrdann.WithObserver(c)).RunSegmentation(stream)
	if err != nil {
		fail("pipeline: %v", err)
	}
	f, j := vrdann.EvaluateSegmentation(res.Masks, vid.Masks)
	fmt.Printf("segmentation: F-Score=%.3f IoU=%.3f | NN-L %d runs, NN-S %d runs, %d MVs (%d bi-ref)\n",
		f, j, res.Stats.NNLRuns, res.Stats.NNSRuns, res.Stats.MVCount, res.Stats.BiRefMVs)
}

func runDetect(vid *vrdann.Video, stream []byte, workers int, c *vrdann.Collector) {
	det := vrdann.NewOracleBoxDetector("detector", vid.Boxes, 1.6, 1)
	res, err := (&vrdann.Pipeline{Workers: workers, Obs: c}).RunDetection(stream, det)
	if err != nil {
		fail("pipeline: %v", err)
	}
	ap := vrdann.EvaluateDetection(res.Detections, vrdann.GTBoxes(vid), 0.5)
	fmt.Printf("detection: AP@0.5=%.3f | detector ran on %d/%d frames\n",
		ap, res.Stats.NNLRuns, vid.Len())
}

func findProfile(name string) (vrdann.SeqProfile, bool) {
	for _, p := range vrdann.SuiteProfiles {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range vrdann.DetectionProfiles {
		if p.Name == name {
			return p, true
		}
	}
	return vrdann.SeqProfile{}, false
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vrdann: "+format+"\n", args...)
	os.Exit(1)
}
