package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/contentcache"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// contentVideo builds one distinct piece of content per index: same
// geometry, different motion, so chunk bytes, digests and ground-truth
// masks all differ between contents.
func contentVideo(c int) *video.Video {
	return makeTestVideo(18, 1.5+float64(c))
}

// contentSegmenters returns a NewSegmenter that assigns sessions to
// contents by open order: session k serves content k mod contents. The
// oracle label depends only on the content, so sessions serving equal
// bytes carry equal model fingerprints — the cache-sharing contract.
func contentSegmenters(vids []*video.Video) func(id string) segment.Segmenter {
	var opened int
	var mu sync.Mutex
	return func(string) segment.Segmenter {
		mu.Lock()
		c := opened % len(vids)
		opened++
		mu.Unlock()
		return segment.NewOracle(fmt.Sprintf("oracle-c%d", c), vids[c].Masks, 0.05, 2, 7)
	}
}

// TestCacheServedMasksBitIdentical is the tentpole differential test:
// across {1,2,4,8} viewers per content and {1,2} distinct contents, every
// frame served through the content cache is byte-identical to a standalone
// serial run, and the single-flight accounting is exact — one miss per
// distinct (content, frame) key, a hit for every other serve.
func TestCacheServedMasksBitIdentical(t *testing.T) {
	const frames, chunksPer = 18, 2
	for _, contents := range []int{1, 2} {
		for _, viewers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%dcontents-%dviewers", contents, viewers), func(t *testing.T) {
				nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
				vids := make([]*video.Video, contents)
				chunks := make([][]byte, contents)
				ref := make(map[int][]FrameResult)
				for c := 0; c < contents; c++ {
					vids[c] = contentVideo(c)
					chunks[c] = encodeTestVideo(t, vids[c])
					for _, m := range serialReference(t, vids[c], chunks[c], nns) {
						ref[c] = append(ref[c], FrameResult{Display: m.Display, Type: m.Type, Mask: m.Mask})
					}
				}

				col := obs.New()
				srv, err := NewServer(Config{
					MaxSessions:  contents * viewers,
					Workers:      4,
					NewSegmenter: contentSegmenters(vids),
					NNS:          nns,
					CacheBytes:   64 << 20,
					Obs:          col,
				})
				if err != nil {
					t.Fatal(err)
				}
				sessions := make([]*Session, contents*viewers)
				for i := range sessions {
					if sessions[i], err = srv.Open(); err != nil {
						t.Fatal(err)
					}
				}
				results := make([][][]FrameResult, len(sessions))
				var wg sync.WaitGroup
				for i, s := range sessions {
					wg.Add(1)
					go func(i int, s *Session) {
						defer wg.Done()
						defer s.Close()
						for c := 0; c < chunksPer; c++ {
							ck, err := s.Submit(context.Background(), chunks[i%contents])
							if err != nil {
								t.Errorf("session %d chunk %d: %v", i, c, err)
								return
							}
							res, err := ck.Wait(context.Background())
							if err != nil {
								t.Errorf("session %d chunk %d: %v", i, c, err)
								return
							}
							results[i] = append(results[i], res)
						}
					}(i, s)
				}
				wg.Wait()
				if err := srv.Close(context.Background()); err != nil {
					t.Fatal(err)
				}

				for i := range sessions {
					want := ref[i%contents]
					for c, res := range results[i] {
						if len(res) != len(want) {
							t.Fatalf("session %d chunk %d: %d frames, want %d", i, c, len(res), len(want))
						}
						for j, fr := range res {
							w := want[j]
							if fr.Display != c*len(want)+w.Display || fr.Type != w.Type || fr.Dropped {
								t.Fatalf("session %d chunk %d frame %d: display/type/drop diverge", i, c, j)
							}
							if !bytes.Equal(fr.Mask.Pix, w.Mask.Pix) {
								t.Fatalf("session %d chunk %d frame %d: cached serving diverges from serial run", i, c, j)
							}
						}
					}
				}

				// Single-flight accounting: each of the contents×frames keys is
				// computed exactly once (a miss); every other serve is a hit.
				total := int64(len(sessions) * chunksPer * frames)
				wantMiss := int64(contents * frames)
				snap := col.Snapshot()
				if got := snap.Counters[obs.CounterCacheMisses.String()]; got != wantMiss {
					t.Fatalf("misses = %d, want %d", got, wantMiss)
				}
				if got := snap.Counters[obs.CounterCacheHits.String()]; got != total-wantMiss {
					t.Fatalf("hits = %d, want %d", got, total-wantMiss)
				}
				if snap.Counters[obs.CounterCacheBytesSaved.String()] <= 0 {
					t.Fatal("bytes-saved not recorded")
				}
			})
		}
	}
}

// signalGateSegmenter closes entered on its first Segment call, then blocks
// until the gate opens — it parks a worker inside an NN-L execution at a
// point the test can observe.
type signalGateSegmenter struct {
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
	inner   segment.Segmenter
}

func (g *signalGateSegmenter) Name() string { return g.inner.Name() }
func (g *signalGateSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.inner.Segment(f, display)
}

// TestForceCloseMirrorsQuantCounters pins the teardown counter fix: block
// counters recorded by a step that then fails (here: a batched refine
// retracted by a forced drain) must still reach the server-wide collector,
// so /metrics totals equal the per-session sums even for force-closed
// sessions. The open cache fill of the failed step must be abandoned, not
// published.
//
// Construction: session B parks a worker inside a gated NN-L so the
// batcher's stall detection sees two busy workers; session A's anchors are
// pre-filled into the content cache so its first dirty B-frame is the first
// NN work it submits. That refine item (1 pending < 2 busy, 10s flush
// timer) stays queued until the forced Close cancels it — after StepPrepare
// recorded the frame's dirty/skipped counts.
func TestForceCloseMirrorsQuantCounters(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	vA, vB := contentVideo(0), contentVideo(1)
	chunkA, chunkB := encodeTestVideo(t, vA), encodeTestVideo(t, vB)

	entered := make(chan struct{})
	gate := make(chan struct{})
	var opened int
	col := obs.New()
	srv, err := NewServer(Config{
		MaxSessions: 2,
		Workers:     2,
		NewSegmenter: func(string) segment.Segmenter {
			opened++
			if opened == 1 {
				return &signalGateSegmenter{entered: entered, gate: gate,
					inner: segment.NewOracle("gate", vB.Masks, 0.05, 2, 7)}
			}
			return segment.NewOracle("target", vA.Masks, 0.05, 2, 7)
		},
		NNS:           nns,
		SkipResidual:  true,
		SkipThreshold: 1,
		MaxBatch:      2,
		MaxBatchWait:  10 * time.Second,
		CacheBytes:    64 << 20,
		Obs:           col,
	})
	if err != nil {
		t.Fatal(err)
	}
	sB, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Submit(context.Background(), chunkB); err != nil {
		t.Fatal(err)
	}
	<-entered // worker 1 is now parked inside B's NN-L execution

	sA, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fill A's anchor masks so its first pending NN work is a B-frame
	// refine. The reference pipeline computes exactly the masks A's own
	// oracle would (labels differ; oracle output does not depend on them).
	digest := codec.ChunkDigest(chunkA)
	for _, m := range serialReference(t, vA, chunkA, nns) {
		if !m.Type.IsAnchor() {
			continue
		}
		key := contentcache.Key{Content: digest, Display: m.Display, Model: sA.modelFP}
		_, f, owner := srv.cache.Acquire(key)
		if !owner {
			t.Fatalf("pre-fill of display %d lost ownership", m.Display)
		}
		f.Commit(m.Mask)
	}
	chA, err := sA.Submit(context.Background(), chunkA)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until A's StepPrepare has recorded residual-skip counters for a
	// B-frame whose refine is now queued in the batcher (it cannot flush:
	// 1 pending < 2 busy workers, and the timer is 10s out).
	deadline := time.Now().Add(5 * time.Second)
	for sA.Metrics().Counters[obs.CounterQuantBlocksDirty.String()] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session A never recorded dirty-block counters")
		}
		time.Sleep(time.Millisecond)
	}

	// Forced drain: the canceled context retracts A's queued refine, so the
	// step that recorded the counters fails.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close(ctx) }()
	time.Sleep(20 * time.Millisecond)
	close(gate) // release B; its remaining steps fail on the server context
	if err := <-closed; !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	if _, err := chA.Wait(context.Background()); err == nil {
		t.Fatal("session A's chunk served despite forced drain")
	}

	// The fix under test: server-wide totals equal the per-session sums even
	// though A's last counted step never completed.
	snap := col.Snapshot()
	for _, ctr := range []obs.Counter{obs.CounterQuantBlocksDirty, obs.CounterQuantBlocksSkipped, obs.CounterQuantBlocksUnknown} {
		sum := sA.Metrics().Counters[ctr.String()] + sB.Metrics().Counters[ctr.String()]
		if got := snap.Counters[ctr.String()]; got != sum {
			t.Fatalf("%s: server total %d != per-session sum %d", ctr.String(), got, sum)
		}
	}
	if sA.Metrics().Counters[obs.CounterQuantBlocksDirty.String()] == 0 {
		t.Fatal("scenario failed to record any dirty blocks")
	}
	// The failed step's open fill was invalidated, not published.
	if got := snap.Counters[obs.CounterCacheFillAborts.String()]; got < 1 {
		t.Fatalf("fill-aborts = %d, want >= 1", got)
	}
}

// TestCorruptChunkCannotPoisonCache: a corrupted copy of popular content
// hashes to its own keys, so a session serving it — whether it fails or
// not — never perturbs what clean sessions are served.
func TestCorruptChunkCannotPoisonCache(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	v := contentVideo(0)
	chunk := encodeTestVideo(t, v)
	ref := serialReference(t, v, chunk, nns)

	corrupt := append([]byte(nil), chunk...)
	for i := len(corrupt) * 3 / 4; i < len(corrupt)*3/4+8 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xA5
	}

	srv, err := NewServer(Config{
		MaxSessions: 2,
		Workers:     2,
		NewSegmenter: func(string) segment.Segmenter {
			return segment.NewOracle("shared", v.Masks, 0.05, 2, 7)
		},
		NNS:        nns,
		CacheBytes: 64 << 20,
		Obs:        obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sBad, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	// The corrupt copy may fail mid-chunk or decode to garbage — either way
	// whatever it published lives under the corrupt digest's keys.
	if c, err := sBad.Submit(context.Background(), corrupt); err == nil {
		c.Wait(context.Background())
	}
	sBad.Close()

	sClean, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	c, err := sClean.Submit(context.Background(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sClean.Close()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ref) {
		t.Fatalf("clean session served %d frames, want %d", len(res), len(ref))
	}
	for j, fr := range res {
		if !bytes.Equal(fr.Mask.Pix, ref[j].Mask.Pix) {
			t.Fatalf("frame %d: clean session diverges after corrupt submission", j)
		}
	}
}
