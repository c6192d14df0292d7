// The one frame loop of the VR-DANN pipeline — the software analog of the
// paper's agent unit (Sec IV). Every entry point (Pipeline.RunSegmentation,
// Pipeline.RunDetection, StreamingPipeline.Run and their variants) drives a
// StreamEngine through run: decoding, NN-L anchor inference and B-frame
// MV reconstruction run inline on the goroutine that steps the engine,
// while B-frame NN-S refinement may run on a pool of workers under the
// shadow of the following anchors' NN-L.
//
// Bit-identical output across worker counts holds by construction: only
// the stepping goroutine touches engine state (reference window, Stats,
// MaskSource), each worker refines with its own clone of the network on
// inputs StepPrepare already gathered, and results are emitted in decode
// order.

package core

import (
	"context"
	"sync"

	"vrdann/internal/obs"
)

// inflight is one stepped frame awaiting decode-order emission. done is
// nil when the frame is already complete, otherwise it closes once a
// worker has finished pn.
type inflight struct {
	mo      *MaskOut
	pn      *PendingNN
	done    chan struct{}
	maxSegs int // the engine's working-set maximum after this step
}

// run steps the engine to the end of its stream and calls emit for every
// frame in decode order. NN-L work and, when the engine has no workers,
// NN-S work run inline; with e.workers > 1 (and refinement on), each
// B-frame's NN-S work goes to one of that many goroutines, each refining
// with its own clone of the network, while the caller keeps stepping. A
// frame is emitted as soon as it and every earlier frame are complete, so
// without workers each frame is emitted right after its step. A failed
// emit stops the run.
//
// It returns the working-set maximum through the last frame emitted (or
// the step that failed), and the first error in decode order: a step error
// is returned only after every earlier frame was emitted. No worker
// outlives the call.
func (e *StreamEngine) run(ctx context.Context, emit func(*MaskOut) error) (int, error) {
	c := e.p.Obs
	var jobs chan *inflight
	if e.workers > 1 && e.refine {
		jobs = make(chan *inflight)
		var wg sync.WaitGroup
		for i := 0; i < e.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := e.p.newRefiner(true)
				for f := range jobs {
					c.GaugeAdd(obs.GaugeWorkers, 1)
					f.pn.Finish(f.pn.refine(r))
					c.GaugeAdd(obs.GaugeWorkers, -1)
					c.GaugeAdd(obs.GaugeJobQueue, -1)
					close(f.done)
				}
			}()
		}
		defer func() {
			close(jobs)
			wg.Wait()
		}()
	}

	var queue []*inflight
	maxSegs := 0
	// flush emits the completed head of the queue; with wait it waits for
	// and emits every queued frame.
	flush := func(wait bool) error {
		defer func() { c.GaugeSet(obs.GaugeEmitQueue, int64(len(queue))) }()
		for len(queue) > 0 {
			f := queue[0]
			if f.done != nil {
				if wait {
					<-f.done
				} else {
					select {
					case <-f.done:
					default:
						return nil
					}
				}
			}
			queue[0] = nil
			queue = queue[1:]
			maxSegs = f.maxSegs
			if err := emit(f.mo); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		mo, pn, err := e.StepPrepare(ctx, nil)
		if err != nil {
			if ferr := flush(true); ferr != nil {
				return maxSegs, ferr
			}
			return e.maxSegs, err
		}
		f := &inflight{mo: mo}
		switch {
		case pn == nil:
		case pn.IsAnchor() || jobs == nil:
			f.mo = pn.Finish(pn.ExecuteLocal())
		default:
			f.mo, f.pn, f.done = pn.mo, pn, make(chan struct{})
		}
		if f.mo == nil {
			if err := flush(true); err != nil {
				return maxSegs, err
			}
			return e.maxSegs, nil
		}
		f.maxSegs = e.maxSegs
		queue = append(queue, f)
		if f.pn != nil {
			c.GaugeAdd(obs.GaugeJobQueue, 1)
			jobs <- f
		}
		if err := flush(false); err != nil {
			return maxSegs, err
		}
	}
}
