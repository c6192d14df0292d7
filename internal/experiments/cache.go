package experiments

import (
	"context"

	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/video"
)

// CacheRow is one point of the content-cache sweep: viewers concurrent
// sessions per distinct content, each submitting two chunks of its content,
// served once without the cache and once with it.
type CacheRow struct {
	Viewers     int     `json:"viewers"`  // sessions per distinct content
	Contents    int     `json:"contents"` // distinct contents offered
	Frames      int     `json:"frames"`   // frames served (cached run)
	UncachedFPS float64 `json:"uncachedFps"`
	CachedFPS   float64 `json:"cachedFps"`
	Speedup     float64 `json:"speedup"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hitRate"`
	Evictions   int64   `json:"evictions"`
	BytesSaved  int64   `json:"bytesSaved"`
}

var (
	cacheContentSweep = []int{1, 2}
	cacheViewerSweep  = []int{1, 2, 4, 8}
)

// CacheFigure sweeps viewer count against distinct-content count through
// the serving layer with NN-S refinement, with and without the shared
// content-addressed mask cache. Masks are bit-identical across the grid
// (pinned by the serve differential tests), so the series isolates the
// economics of content addressing: with one hot content the fleet cost
// collapses toward a single compute stream plus per-viewer decodes, and
// with more distinct contents the win shrinks toward the cache-off
// baseline.
func (h *Harness) CacheFigure() ([]CacheRow, error) {
	// Train (and cache) NN-S up front so the timed runs don't pay for it.
	if _, err := h.NNS(); err != nil {
		return nil, err
	}
	rows := make([]CacheRow, 0, len(cacheContentSweep)*len(cacheViewerSweep))
	for _, contents := range cacheContentSweep {
		vids := h.Suite()[:contents]
		for _, viewers := range cacheViewerSweep {
			base, _, err := h.cacheRun(vids, viewers, 0)
			if err != nil {
				return nil, err
			}
			rep, snap, err := h.cacheRun(vids, viewers, 256<<20)
			if err != nil {
				return nil, err
			}
			row := CacheRow{
				Viewers:     viewers,
				Contents:    contents,
				Frames:      rep.Frames,
				UncachedFPS: base.FPS,
				CachedFPS:   rep.FPS,
				Hits:        snap.Counters[obs.CounterCacheHits.String()],
				Misses:      snap.Counters[obs.CounterCacheMisses.String()],
				Evictions:   snap.Counters[obs.CounterCacheEvictions.String()],
				BytesSaved:  snap.Counters[obs.CounterCacheBytesSaved.String()],
			}
			if base.FPS > 0 {
				row.Speedup = rep.FPS / base.FPS
			}
			if row.Hits+row.Misses > 0 {
				row.HitRate = float64(row.Hits) / float64(row.Hits+row.Misses)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// cacheRun serves viewers sessions per content, two chunks each, and
// returns the load report plus the server collector snapshot. cacheBytes 0
// is the uncached baseline. Sessions are assigned to contents by open
// order; the NN-L label and per-video oracle seed depend only on the
// content, so sessions serving equal bytes compute equal masks — the
// cache-sharing contract.
func (h *Harness) cacheRun(vids []*video.Video, viewers int, cacheBytes int64) (*serve.LoadReport, *obs.Report, error) {
	nns, err := h.NNS()
	if err != nil {
		return nil, nil, err
	}
	streams := viewers * len(vids)
	videoFor := func(i int) *video.Video { return vids[i%len(vids)] }
	opened := 0
	col := obs.New()
	srv, err := serve.NewServer(serve.Config{
		MaxSessions: streams,
		NNS:         nns,
		CacheBytes:  cacheBytes,
		Obs:         col,
		NewSegmenter: func(id string) segment.Segmenter {
			v := videoFor(opened)
			opened++
			return h.nnlFor(v, "NN-L(FAVOS)", h.Cfg.FAVOSNoise, 3)
		},
	})
	if err != nil {
		return nil, nil, err
	}
	gen := &serve.LoadGen{
		Server:  srv,
		Streams: streams,
		Chunks: func(i int) [][]byte {
			st, err := h.StreamFor(videoFor(i), h.Cfg.Enc)
			if err != nil {
				return nil
			}
			return [][]byte{st.Data, st.Data}
		},
	}
	rep, err := gen.Run(context.Background())
	if cerr := srv.Close(context.Background()); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return rep, col.Snapshot(), nil
}
