package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
)

// server is a started serving stack for one workload.
type server struct {
	srv      *serve.Server
	sessions []*serve.Session
	obs      *obs.Collector
	// nnl records NN-L call times and waits records batch queue waits when
	// the run is traced; both are nil otherwise.
	nnl   *nnlRecorder
	waits *batchWaits
}

// batchWaits keeps the exact queue wait of every batched item, of which the
// collector's own histogram keeps only log2 buckets. It is the collector's
// span hook in a traced run.
type batchWaits struct {
	mu sync.Mutex
	ms []float64
}

func (b *batchWaits) Span(ev obs.SpanEvent) {
	if ev.Stage != obs.StageBatchWait {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ms = append(b.ms, ms(ev.Dur))
}

// startServer builds the workload's server and opens its sessions. A
// traced server wraps every session's NN-L in a timing segmenter.
func startServer(w *workload, m *models, traced bool) (*server, error) {
	s := &server{obs: obs.New()}
	if traced {
		s.nnl, s.waits = &nnlRecorder{}, &batchWaits{}
		s.obs.SetTracer(s.waits)
	}
	cfg := w.config(m)
	cfg.Obs = s.obs
	cfg.NewSegmenter = func(string) segment.Segmenter {
		seg := segment.Segmenter(m.nnl.fresh())
		if s.nnl != nil {
			seg = timed(seg, s.nnl)
		}
		return seg
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s.srv = srv
	for i := 0; i < w.sessions(); i++ {
		sess, err := srv.Open()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("open session %d: %w", i, err)
		}
		s.sessions = append(s.sessions, sess)
	}
	return s, nil
}

// close drains the server; every worker has exited when it returns.
func (s *server) close() error { return s.srv.Close(context.Background()) }

// servedFrame is what the queue-wait estimate needs of one served frame.
type servedFrame struct {
	session int
	anchor  bool
	// serverMS is the server's own latency figure: chunk arrival to the
	// frame being served.
	serverMS float64
}

// runStats is everything one measured serving run observed.
type runStats struct {
	attempted, served, dropped, failed int
	// latMS is per served frame, from the chunk's due time (open loop) or
	// from its submit (closed loop).
	latMS      []float64
	sloMet     int
	fSum       float64
	mismatches int
	mismatch   string // first mismatch, for the error report
	frames     []servedFrame
	submitUS   []float64
	lateMS     []float64
	wall, cpu  time.Duration
	// memMB samples the runtime's resident memory through the run.
	memMB []float64
	// report is the server-wide collector; sessions the per-session ones,
	// both read after the server drained.
	report   *obs.Report
	sessions []*obs.Report
	nnl      *nnlRecorder
	waits    *batchWaits
}

// record scores one chunk's outcome. since runs from the moment latency is
// measured from to the return of the chunk's Submit, and a frame's latency
// is since plus its server latency, which runs from the chunk's arrival.
// Submit stamps arrival shortly before it returns, so the bookkeeping
// between the two — a few microseconds, see serve.submit_us_p50 — is
// counted twice; the admission wait before arrival is counted once.
func (st *runStats) record(w *workload, session int, ch *chunk, res []serve.FrameResult, err error, since time.Duration) {
	frames := len(ch.gt)
	st.attempted += frames
	if err != nil {
		st.failed += frames
		return
	}
	if len(res) != frames {
		st.failed += frames
		st.fail(fmt.Sprintf("session %d: chunk served %d of %d frames", session, len(res), frames))
		return
	}
	for i, r := range res {
		if r.Display-res[0].Display != i || r.Type != ch.types[i] {
			st.fail(fmt.Sprintf("session %d: frame %d served as display %d type %v", session, i, r.Display, r.Type))
		}
		if r.Mask == nil {
			st.dropped++
			continue
		}
		st.served++
		lat := since + r.Latency
		st.latMS = append(st.latMS, ms(lat))
		if lat <= slo {
			st.sloMet++
		}
		st.frames = append(st.frames, servedFrame{session: session, anchor: r.Type.IsAnchor(), serverMS: ms(r.Latency)})
		if ref := ch.ref[i]; ref != nil && (w.checkAll || r.Type.IsAnchor()) {
			if bytes.Equal(r.Mask.Pix, ref.Pix) {
				st.fSum += ch.refF[i]
				continue
			}
			st.fail(fmt.Sprintf("session %d: frame %d (%v) differs from the reference", session, r.Display, r.Type))
		}
		st.fSum += segment.PixelFScore(r.Mask, ch.gt[i])
	}
}

func (st *runStats) fail(msg string) {
	if st.mismatches == 0 {
		st.mismatch = msg
	}
	st.mismatches++
}

// measure drives the workload's traffic at s for the given duration and
// returns what it observed. The server is closed when measure returns.
func measure(w *workload, s *server, content [][]*chunk, seconds time.Duration) (*runStats, error) {
	st := &runStats{nnl: s.nnl, waits: s.waits}
	var mu sync.Mutex
	record := func(session int, ch *chunk, res []serve.FrameResult, err error, since time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		st.record(w, session, ch, res, err, since)
	}
	// Start from a collected heap, so the garbage of training, of the
	// reference and of an earlier run is not collected inside this one.
	runtime.GC()
	debug.FreeOSMemory()
	stop := make(chan struct{})
	mem := sampleMemory(stop)
	cpu0 := cpuTime()
	start := time.Now()
	if w.open {
		openLoop(w, s, content, seconds, start, record, st)
	} else {
		closedLoop(w, s, content, seconds, start, record, st)
	}
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	close(stop)
	st.memMB = <-mem
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close server: %w", err)
	}
	st.report = s.obs.Snapshot()
	for _, sess := range s.sessions {
		st.sessions = append(st.sessions, sess.Metrics())
	}
	return st, nil
}

type recordFunc func(session int, ch *chunk, res []serve.FrameResult, err error, since time.Duration)

// openLoop sends every chunk at its due time from one generator goroutine,
// whatever the server's state, and times each frame from that due time.
// serve.LoadGen is not used: its ticker drops ticks while Submit blocks and
// it times from arrival, which hides stalls. A collector goroutine waits
// on the tickets in send order; a frame's completion time comes from the
// server's own latency figure, so the collector need not be prompt.
func openLoop(w *workload, s *server, content [][]*chunk, seconds time.Duration, start time.Time, record recordFunc, st *runStats) {
	type send struct {
		session, k int
		due        time.Duration
	}
	var sends []send
	for sess := 0; sess < w.sessions(); sess++ {
		for k := 0; w.due(sess, k) < seconds; k++ {
			sends = append(sends, send{sess, k, w.due(sess, k)})
		}
	}
	sort.SliceStable(sends, func(i, j int) bool { return sends[i].due < sends[j].due })

	type ticket struct {
		session int
		ch      *chunk
		tk      *serve.Chunk
		since   time.Duration
	}
	tickets := make(chan ticket, len(sends)) // one slot per send: the generator never blocks on it
	done := make(chan struct{})
	go func() {
		defer close(done)
		for t := range tickets {
			res, err := t.tk.Wait(context.Background())
			record(t.session, t.ch, res, err, t.since)
		}
	}()
	for _, sd := range sends {
		if d := sd.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(start)
		ch := content[sd.session][sd.k%w.chunks]
		tk, err := s.sessions[sd.session].Submit(context.Background(), ch.data)
		back := time.Since(start)
		st.lateMS = append(st.lateMS, ms(sent-sd.due))
		st.submitUS = append(st.submitUS, us(back-sent))
		if err != nil {
			record(sd.session, ch, nil, err, 0)
			continue
		}
		tickets <- ticket{sd.session, ch, tk, back - sd.due}
	}
	close(tickets)
	<-done
}

// closedLoop runs one client per session that sends its next chunk as soon
// as the previous one is served, until the duration is up; each frame is
// timed from its chunk's submit. A client's lateness is how long after its
// previous chunk's last frame was served it sent the next one.
func closedLoop(w *workload, s *server, content [][]*chunk, seconds time.Duration, start time.Time, record recordFunc, st *runStats) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for sess := 0; sess < w.sessions(); sess++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var served time.Time // when the previous chunk's last frame was served
			for k := 0; time.Since(start) < seconds; k++ {
				ch := content[sess][k%w.chunks]
				t0 := time.Now()
				tk, err := s.sessions[sess].Submit(context.Background(), ch.data)
				sub := time.Since(t0)
				mu.Lock()
				st.submitUS = append(st.submitUS, us(sub))
				if !served.IsZero() {
					st.lateMS = append(st.lateMS, ms(max(0, t0.Sub(served))))
				}
				mu.Unlock()
				if err != nil {
					record(sess, ch, nil, err, 0)
					return
				}
				res, err := tk.Wait(context.Background())
				record(sess, ch, res, err, sub)
				var last time.Duration
				for _, r := range res {
					last = max(last, r.Latency)
				}
				served = t0.Add(sub + last)
			}
		}()
	}
	wg.Wait()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleMemory records the memory the Go runtime holds from the OS — its
// mapped memory minus what it has released back — every 10 ms until stop
// closes, then sends the samples (in MiB) on the returned channel.
func sampleMemory(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		ms := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var mb []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			mb = append(mb, float64(ms[0].Value.Uint64()-ms[1].Value.Uint64())/(1<<20))
			select {
			case <-stop:
				out <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
