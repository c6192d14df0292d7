package serve

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"vrdann/internal/adapt"
	"vrdann/internal/contentcache"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/video"
)

// adaptPoll waits for cond with a deadline — adaptation runs on a background
// trainer, so its side effects are only eventually visible.
func adaptPoll(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdaptTierOffBitIdentical pins the tier's zero-cost-when-idle contract
// from both directions: a server with Adapt nil and a server whose adapter
// can never promote (MinImprove unreachable) both serve masks byte-identical
// to the standalone serial run — training happens strictly in the shadow.
func TestAdaptTierOffBitIdentical(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	ref := serialReference(t, v, chunk, nns)

	for _, tc := range []struct {
		name  string
		adapt *adapt.Config
	}{
		{"adapt-nil", nil},
		{"adapt-on-no-promotion", &adapt.Config{MinImprove: 10}}, // F-scores are <= 1: unreachable
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := obs.New()
			srv, err := NewServer(Config{
				Workers:      2,
				NewSegmenter: oracleFor(v),
				NNS:          nns,
				Obs:          col,
				Adapt:        tc.adapt,
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := srv.Open()
			if err != nil {
				t.Fatal(err)
			}
			ck, err := s.Submit(context.Background(), chunk)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ck.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(ref) {
				t.Fatalf("%d frames, want %d", len(res), len(ref))
			}
			for i, fr := range res {
				if fr.Mask == nil || !bytes.Equal(fr.Mask.Pix, ref[i].Mask.Pix) {
					t.Fatalf("frame %d mask diverges from serial reference", i)
				}
			}
			if tc.adapt != nil {
				// The harvest happened and the trainer runs in the idle gap —
				// with zero effect on what was served.
				snap := col.Snapshot()
				if snap.Counters[obs.CounterAdaptExamples.String()] == 0 {
					t.Fatal("adapt enabled but no pseudo-labels harvested")
				}
				adaptPoll(t, 5*time.Second, func() bool {
					return col.Snapshot().Counters[obs.CounterAdaptSteps.String()] > 0
				}, "shadow training steps")
				if n := col.Snapshot().Counters[obs.CounterAdaptPromotions.String()]; n != 0 {
					t.Fatalf("unreachable MinImprove promoted %d times", n)
				}
			}
			s.Close()
			if err := srv.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdaptPromotionSwapsServingWeights drives the full promotion path under
// serving: forced promotions (MinImprove < 0) must reach the session at a
// chunk boundary — version visible, content-cache fingerprint moved off the
// version-0 key — while frames keep being served.
func TestAdaptPromotionSwapsServingWeights(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)

	col := obs.New()
	srv, err := NewServer(Config{
		Workers:      2,
		NewSegmenter: oracleFor(v),
		NNS:          nns,
		CacheBytes:   16 << 20,
		Obs:          col,
		Adapt:        &adapt.Config{MinImprove: -1, EvalEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	if s.baseFP == 0 || s.modelFP != contentcache.AdaptedFingerprint(s.baseFP, s.ID, 0) {
		t.Fatal("adapting session not keyed into the version-0 adapted keyspace at open")
	}
	fp0 := s.modelFP
	ck, err := s.Submit(context.Background(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Server idle: the trainer reaches its forced evaluation and stages a
	// promotion for the next chunk boundary.
	adaptPoll(t, 10*time.Second, func() bool {
		return col.Snapshot().Counters[obs.CounterAdaptPromotions.String()] > 0
	}, "staged promotion")
	ck, err = s.Submit(context.Background(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ck.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range res {
		if fr.Mask == nil {
			t.Fatalf("frame %d dropped after weight swap", i)
		}
	}
	// The chunk completed, so the worker's swap writes happened-before the
	// ticket resolved.
	if s.adaptVersion == 0 {
		t.Fatal("promotion staged but never picked up at the chunk boundary")
	}
	if s.modelFP == fp0 || s.modelFP != contentcache.AdaptedFingerprint(s.baseFP, s.ID, s.adaptVersion) {
		t.Fatalf("model fingerprint did not follow the weights version %d", s.adaptVersion)
	}
	s.Close()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptPromotionsServeCurrentWeights runs several chunks through one
// adapting session with forced promotions landing between them (under
// -race, with the trainer live). The session reuses one NN-S refiner
// across chunks and rebuilds it only when a promotion swaps the weights;
// every chunk must be served bit-identical to the serial reference run on
// exactly the weights the session held for it.
func TestAdaptPromotionsServeCurrentWeights(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)

	col := obs.New()
	srv, err := NewServer(Config{
		Workers:      2,
		NewSegmenter: oracleFor(v),
		NNS:          nns,
		Obs:          col,
		Adapt:        &adapt.Config{MinImprove: -1, EvalEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	promotions := func() int64 { return col.Snapshot().Counters[obs.CounterAdaptPromotions.String()] }
	var version uint64
	for round := 0; round < 4; round++ {
		if round > 0 {
			seen := promotions()
			adaptPoll(t, 10*time.Second, func() bool { return promotions() > seen }, "staged promotion")
		}
		ck, err := s.Submit(context.Background(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ck.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// The chunk completed, so the worker's swap at its start
		// happened-before the ticket resolved; the next swap waits for the
		// next Submit.
		if round > 0 && s.adaptVersion == version {
			t.Fatalf("round %d: staged promotion not picked up (version %d)", round, version)
		}
		version = s.adaptVersion
		ref := serialReference(t, v, chunk, s.pipe.NNS.Clone())
		if len(res) != len(ref) {
			t.Fatalf("round %d: %d frames, want %d", round, len(res), len(ref))
		}
		for i, fr := range res {
			if fr.Mask == nil || !bytes.Equal(fr.Mask.Pix, ref[i].Mask.Pix) {
				t.Fatalf("round %d (weights version %d): frame %d diverges from the serial reference on those weights", round, version, i)
			}
		}
	}
	s.Close()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptCacheIsolation submits identical bytes through two adapting
// sessions on one cached server: their weights diverge independently, so
// they must never share cache entries — zero hits, every frame computed —
// while a control server without the tier shares as before.
func TestAdaptCacheIsolation(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)

	serveTwo := func(adaptCfg *adapt.Config) (hits int64, entries int) {
		col := obs.New()
		srv, err := NewServer(Config{
			Workers: 2,
			// Content-deterministic segmenter with a fixed name: both sessions
			// carry the same base fingerprint, so any isolation observed below
			// comes from the adapted keyspace alone.
			NewSegmenter: contentSegmenters([]*video.Video{v}),
			NNS:          nns,
			CacheBytes:   16 << 20,
			Obs:          col,
			Adapt:        adaptCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			s, err := srv.Open()
			if err != nil {
				t.Fatal(err)
			}
			ck, err := s.Submit(context.Background(), chunk)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ck.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}
		entries = srv.cache.Len()
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		return col.Snapshot().Counters[obs.CounterCacheHits.String()], entries
	}

	hits, entries := serveTwo(&adapt.Config{MinImprove: 10})
	if hits != 0 {
		t.Fatalf("adapting sessions shared %d cached masks; isolation requires 0", hits)
	}
	if entries == 0 {
		t.Fatal("adapting sessions should still populate their own isolated entries")
	}
	if hits, _ := serveTwo(nil); hits == 0 {
		t.Fatal("control server without adaptation should share cached masks")
	}
}

// TestAdaptDrainStopsTrainers is the shutdown-hygiene gate (under -race):
// sessions force-closed with training in flight and a full server drain
// leak no goroutine — every per-session trainer is stopped and awaited —
// and a retiring session's staged-but-untaken weights are discarded, not
// promoted.
func TestAdaptDrainStopsTrainers(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)

	requireNoGoroutineLeak(t, func() {
		col := obs.New()
		srv, err := NewServer(Config{
			Workers:      2,
			NewSegmenter: oracleFor(v),
			NNS:          nns,
			Obs:          col,
			Adapt:        &adapt.Config{MinImprove: -1, EvalEvery: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s, err := srv.Open()
			if err != nil {
				t.Fatal(err)
			}
			ck, err := s.Submit(context.Background(), chunk)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ck.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				// Force-close the first session the moment its chunk resolves —
				// its trainer is mid-burst on an idle server. Retirement must
				// stop and await it.
				s.Close()
			} else {
				defer s.Close()
			}
		}
		// Let trainers stage promotions that no chunk boundary will ever take.
		adaptPoll(t, 10*time.Second, func() bool {
			return col.Snapshot().Counters[obs.CounterAdaptPromotions.String()] > 0
		}, "in-flight training during drain")
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}
