package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/asap-go/asap"
	"github.com/asap-go/asap/internal/acf"
	"github.com/asap-go/asap/internal/core"
	"github.com/asap-go/asap/internal/fft"
	"github.com/asap-go/asap/internal/preagg"
	"github.com/asap-go/asap/internal/replica"
	"github.com/asap-go/asap/internal/server"
	"github.com/asap-go/asap/internal/vfs"
	"github.com/asap-go/asap/internal/wal"
)

// Replay sizes: how many of the run's timed ingest requests each layer
// replays, in chunks of how many, how many reads per route, and how
// often each kernel runs per sampled series. They bound a traced run to
// well under the run limit.
const (
	replayRequests = 1200
	replayChunk    = 100
	replayReads    = 400
	kernelReps     = 30
	kernelSeries   = 11 // one series per paper dataset
	segmentBytes   = 8 << 20
)

var (
	quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))
	quietLogf   = func(string, ...interface{}) {}
)

// layerReport collects per-layer metrics in the order they are made.
type layerReport struct {
	m     map[string]Metric
	order []string
}

func (l *layerReport) put(name, unit string, v float64) {
	if l.m == nil {
		l.m = map[string]Metric{}
	}
	l.m[name] = Metric{Value: v, Unit: unit}
	l.order = append(l.order, name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay feeds the run's own inputs, single-threaded and in-process,
// into each layer's public entry point and derives the per-layer
// metrics from the spans the benchmark records around those calls. The
// spans are written to spansPath.
func replay(ctx context.Context, r *Run, spansPath string) (map[string]Metric, error) {
	reqs := r.timed
	if len(reqs) > replayRequests {
		reqs = reqs[:replayRequests]
	}
	e2e := r.endToEnd()
	tr := newTracer(true)
	l, err := openLayers(filepath.Join(r.dir, "replay"), r)
	if err != nil {
		return nil, err
	}
	defer l.close()
	if err := l.run(tr, r, reqs); err != nil {
		return nil, err
	}
	if err := l.reopen(tr, r); err != nil {
		return nil, err
	}
	if err := replayKernels(tr, r); err != nil {
		return nil, err
	}
	rs, err := replayReplica(ctx, tr, filepath.Join(r.dir, "replay", "replica"), r)
	if err != nil {
		return nil, err
	}

	var rep layerReport
	p50 := func(name string) float64 { return median(tr.durations(name)) }
	n := float64(len(reqs))
	rep.put("server.handler.ingest_us", "us", p50("server.handler.ingest"))
	rep.put("server.handler.ingest_self_us", "us", median(tr.selfDurations("server.handler.ingest")))
	rep.put("server.handler.frame_us", "us", p50("server.handler.frame"))
	rep.put("server.handler.plot_us", "us", p50("server.handler.plot"))
	rep.put("server.allocs_per_ingest", "count", l.allocs["ingest"]/n)
	rep.put("server.bytes_per_ingest", "B", l.allocBytes/n)
	rep.put("server.allocs_per_frame", "count", l.allocs["frame"]/replayReads)
	rep.put("server.allocs_per_plot", "count", l.allocs["plot"]/replayReads)
	rep.put("server.wait_ms", "ms", e2e["ingest_ack_p50_ms"].Value-p50("server.handler.ingest")/1000)
	rep.put("obs.trace_overhead_us", "us", p50("server.handler.ingest")-p50("obs.untraced.ingest"))
	rep.put("obs.trace_spans_per_ingest", "count", l.spans/n)
	rep.put("hub.push_us", "us", p50("hub.push"))
	rep.put("hub.push_self_us", "us", median(tr.selfDurations("hub.push")))
	rep.put("hub.frame_us", "us", p50("hub.frame"))
	rep.put("hub.new_s", "s", l.hubNewS)
	rep.put("wal.append_us", "us", p50("wal.append"))
	rep.put("wal.append_p99_us", "us", newDist(tr.durations("wal.append")).Quantile(0.99))
	rep.put("wal.syncs_per_request", "count", l.syncs/n)
	rep.put("wal.records_per_sync", "count", ratio(l.records, l.syncs))
	rep.put("wal.bytes_per_point", "B", ratio(l.walBytes, l.points))
	rep.put("wal.rotations", "count", l.rotations)
	rep.put("wal.open_s", "s", l.walOpenS)
	rep.put("stream.push_us", "us", p50("stream.push"))
	// Stats.Searches counts refresh deadlines; a coalesced or skipped
	// deadline ran no search of its own.
	st := l.streamDelta
	searched := float64(st.Searches - st.SearchesCoalesced - st.SearchesSkipped)
	rep.put("stream.searches_per_request", "count", searched/n)
	rep.put("stream.coalesced_ratio", "ratio", ratio(float64(st.SearchesCoalesced), float64(st.Searches)))
	rep.put("stream.skipped_ratio", "ratio", ratio(float64(st.SearchesSkipped), float64(st.Searches)))
	rep.put("stream.candidates_per_search", "count", ratio(float64(st.Candidates), searched))
	rep.put("stream.restore_divergent_series", "count", float64(r.divergent))
	rep.put("core.search_us", "us", p50("core.search"))
	rep.put("core.evaluate_us", "us", p50("core.evaluate"))
	rep.put("acf.compute_us", "us", p50("acf.compute"))
	rep.put("fft.real_forward_us", "us", p50("fft.real_forward"))
	b := r.bcast
	// An event offered to a subscriber is either written or superseded
	// by a newer frame of its series before the subscriber drained it.
	rep.put("broadcast.published", "count", float64(b.Published))
	rep.put("broadcast.delivered_ratio", "ratio", ratio(float64(b.Delivered), float64(b.Delivered+b.Coalesced)))
	rep.put("broadcast.coalesced_ratio", "ratio", ratio(float64(b.Coalesced), float64(b.Published)))
	rep.put("broadcast.evicted", "count", float64(b.Evicted))
	rep.put("sse.bytes_per_frame", "B", ratio(float64(r.sseBytes), float64(r.sseFrames)))
	rep.put("replica.poll_us", "us", p50("replica.poll"))
	rep.put("replica.polls", "count", rs.polls)
	rep.put("replica.bytes_fetched_per_point", "B", ratio(rs.bytes, float64(r.acked())))
	rep.put("replica.resyncs", "count", rs.resyncs)
	rep.put("replica.retries", "count", rs.retries)
	rep.put("loadgen.late_p99_ms", "ms", newDist(r.lates).Quantile(0.99))
	rep.put("loadgen.backlog_max", "count", float64(r.backlogMax))
	rep.put("perfbench.span_overhead_us", "us", spanCost())

	fmt.Printf("per-layer replay of %d timed requests, %d reads per route\n", len(reqs), replayReads)
	for _, name := range rep.order {
		m := rep.m[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)
	return rep.m, nil
}

// layers holds one independent instance of every replayed layer: two
// servers (the shipped TraceSample, and in-program tracing off), a
// WAL-backed hub, a standalone WAL and one streamer per series.
type layers struct {
	dir              string
	traced, untraced *server.Server
	hubLog           *wal.Log
	hub              *server.Hub
	log              *wal.Log
	cfs              *countingFS
	streams          []*asap.Streamer

	allocs      map[string]float64
	allocBytes  float64
	spans       float64
	syncs       float64
	records     float64
	walBytes    float64
	points      float64
	rotations   float64
	streamDelta asap.StreamStats
	hubNewS     float64
	walOpenS    float64
}

func (l *layers) close() {
	for _, s := range []*server.Server{l.traced, l.untraced} {
		if s != nil {
			s.Close()
		}
	}
	for _, w := range []*wal.Log{l.hubLog, l.log} {
		if w != nil {
			w.Close()
		}
	}
}

// horizonPoints is the WAL retention the server configures: enough raw
// tail to rebuild a streamer's ring.
func horizonPoints() (int, error) {
	st, err := asap.NewStreamer(streamConfig())
	if err != nil {
		return 0, err
	}
	capacity := windowPoints / st.Ratio()
	if capacity < 4 {
		capacity = 4
	}
	return (capacity + 2) * st.Ratio(), nil
}

func walConfig(dir string, r *Run, horizon int, fsys wal.FS) wal.Config {
	return wal.Config{
		Dir:           dir,
		Shards:        runtime.GOMAXPROCS(0),
		SegmentBytes:  segmentBytes,
		FsyncEvery:    r.wl.Fsync,
		HorizonPoints: horizon,
		Logf:          quietLogf,
		FS:            fsys,
	}
}

func newReplayServer(dir string, traceSample int, r *Run) (*server.Server, error) {
	return server.New(server.Config{
		Hub:         server.HubConfig{Stream: streamConfig()},
		DataDir:     dir,
		FsyncEvery:  r.wl.Fsync,
		Logger:      quietLogger,
		TraceSample: traceSample,
	})
}

func ingestRequest(groups []Group) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body(groups)))
}

// openLayers builds every layer and feeds each the warm fill, untimed.
func openLayers(dir string, r *Run) (*layers, error) {
	l := &layers{dir: dir, allocs: map[string]float64{}}
	horizon, err := horizonPoints()
	if err != nil {
		return nil, err
	}
	if l.traced, err = newReplayServer(filepath.Join(dir, "traced"), 0, r); err != nil {
		return nil, err
	}
	if l.untraced, err = newReplayServer(filepath.Join(dir, "untraced"), -1, r); err != nil {
		l.close()
		return nil, err
	}
	if l.hubLog, err = wal.Open(walConfig(filepath.Join(dir, "hub"), r, horizon, nil)); err != nil {
		l.close()
		return nil, err
	}
	if l.hub, err = server.NewHub(server.HubConfig{Stream: streamConfig(), WAL: l.hubLog}); err != nil {
		l.close()
		return nil, err
	}
	l.cfs = &countingFS{FS: vfs.OS}
	if l.log, err = wal.Open(walConfig(filepath.Join(dir, "wal"), r, horizon, l.cfs)); err != nil {
		l.close()
		return nil, err
	}
	l.streams = make([]*asap.Streamer, r.wl.Series)
	for i := range l.streams {
		if l.streams[i], err = asap.NewStreamer(streamConfig()); err != nil {
			l.close()
			return nil, err
		}
	}
	for _, g := range r.warm {
		for _, s := range []*server.Server{l.traced, l.untraced} {
			if rec := serve(s.Handler(), ingestRequest(g)); rec.Code != http.StatusOK {
				l.close()
				return nil, fmt.Errorf("replay warm fill: %d %s", rec.Code, rec.Body.Bytes())
			}
		}
		if err := l.pushHub(g); err != nil {
			l.close()
			return nil, err
		}
		if err := l.appendWAL(g); err != nil {
			l.close()
			return nil, err
		}
		l.pushStreams(g)
	}
	if err := l.log.Sync(); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// pushHub makes one Hub.PushBatch call per series group, as Apply does.
func (l *layers) pushHub(groups []Group) error {
	for _, g := range groups {
		if err := l.hub.PushBatch(seriesName(g.Series), g.Values); err != nil {
			return err
		}
	}
	return nil
}

func (l *layers) appendWAL(groups []Group) error {
	for _, g := range groups {
		if err := l.log.Append(seriesName(g.Series), g.Values); err != nil {
			return err
		}
	}
	return nil
}

func (l *layers) pushStreams(groups []Group) {
	for _, g := range groups {
		if f := l.streams[g.Series].PushBatch(g.Values); f != nil {
			f.Release()
		}
	}
}

func (l *layers) streamStats() (s asap.StreamStats) {
	for _, st := range l.streams {
		x := st.Stats()
		s.Searches += x.Searches
		s.SearchesCoalesced += x.SearchesCoalesced
		s.SearchesSkipped += x.SearchesSkipped
		s.Candidates += x.Candidates
	}
	return s
}

func serve(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// timedHTTP serves rs under spans named name, trace ids from lo, and
// returns the allocations the handler made. Requests and recorders are
// built before the loop so the counts are the handler's own.
func timedHTTP(tr *Tracer, h http.Handler, name string, rs []*http.Request, lo int) (mallocs, bytes float64, err error) {
	recs := make([]*httptest.ResponseRecorder, len(rs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, req := range rs {
		id := tr.Begin(name, lo+i, -1)
		h.ServeHTTP(recs[i], req)
		tr.End(id)
	}
	runtime.ReadMemStats(&m1)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s request %d: %d %s", name, lo+i, rec.Code, rec.Body.Bytes())
		}
	}
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc), nil
}

// run replays the requests in chunks. Within a chunk each server serves
// it in turn, then every request goes through the hub, the standalone
// WAL and the streamers back to back, so the layers of one request are
// timed under the same conditions. Spans of request i share trace id i,
// and a lower layer's span names the layer above as parent, which is
// what self time is computed from.
func (l *layers) run(tr *Tracer, r *Run, reqs [][]Group) error {
	ht, hu := l.traced.Handler(), l.untraced.Handler()
	spans0, err := spansStarted(ht)
	if err != nil {
		return err
	}
	st0, walBytes0, stream0 := l.log.Stats(), l.cfs.n.Load(), l.streamStats()
	for lo := 0; lo < len(reqs); lo += replayChunk {
		hi := lo + replayChunk
		if hi > len(reqs) {
			hi = len(reqs)
		}
		var rt, ru []*http.Request
		for _, g := range reqs[lo:hi] {
			rt, ru = append(rt, ingestRequest(g)), append(ru, ingestRequest(g))
		}
		first := len(tr.spans)
		m, b, err := timedHTTP(tr, ht, "server.handler.ingest", rt, lo)
		if err != nil {
			return err
		}
		l.allocs["ingest"] += m
		l.allocBytes += b
		if _, _, err := timedHTTP(tr, hu, "obs.untraced.ingest", ru, lo); err != nil {
			return err
		}
		for i, g := range reqs[lo:hi] {
			hid := tr.Begin("hub.push", lo+i, first+i)
			err := l.pushHub(g)
			tr.End(hid)
			if err != nil {
				return err
			}
			id := tr.Begin("wal.append", lo+i, hid)
			err = l.appendWAL(g)
			tr.End(id)
			if err != nil {
				return err
			}
			id = tr.Begin("stream.push", lo+i, hid)
			l.pushStreams(g)
			tr.End(id)
			for _, grp := range g {
				l.points += float64(len(grp.Values))
			}
		}
	}
	spans1, err := spansStarted(ht)
	if err != nil {
		return err
	}
	l.spans = spans1 - spans0
	s1 := l.streamStats()
	l.streamDelta = asap.StreamStats{
		Searches:          s1.Searches - stream0.Searches,
		SearchesCoalesced: s1.SearchesCoalesced - stream0.SearchesCoalesced,
		SearchesSkipped:   s1.SearchesSkipped - stream0.SearchesSkipped,
		Candidates:        s1.Candidates - stream0.Candidates,
	}

	reads := func(route string) []*http.Request {
		rs := make([]*http.Request, replayReads)
		for i := range rs {
			rs[i] = httptest.NewRequest(http.MethodGet, route+"?series="+seriesName(r.reads[i%len(r.reads)]), nil)
		}
		return rs
	}
	if l.allocs["frame"], _, err = timedHTTP(tr, ht, "server.handler.frame", reads("/frame"), 0); err != nil {
		return err
	}
	if l.allocs["plot"], _, err = timedHTTP(tr, ht, "server.handler.plot", reads("/plot.svg"), 0); err != nil {
		return err
	}
	for i := 0; i < replayReads; i++ {
		id := tr.Begin("hub.frame", i, -1)
		f, _ := l.hub.Frame(seriesName(r.reads[i%len(r.reads)]))
		f.Release()
		tr.End(id)
	}

	// Close flushes and fsyncs the standalone log's tail, which a
	// batched-fsync replay may not have reached yet; count that too.
	err = l.log.Close()
	st1 := l.log.Stats()
	l.log = nil
	if err != nil {
		return err
	}
	l.syncs = float64(st1.Syncs - st0.Syncs)
	l.records = float64(st1.AppendedRecords - st0.AppendedRecords)
	l.walBytes = float64(l.cfs.n.Load() - walBytes0)
	l.rotations = float64(st1.Rotations)
	return nil
}

// reopen times wal.Open plus Recover on the standalone log, and NewHub
// restoring every series from the hub's log.
func (l *layers) reopen(tr *Tracer, r *Run) error {
	horizon, err := horizonPoints()
	if err != nil {
		return err
	}
	id := tr.Begin("wal.open", -1, -1)
	w, err := wal.Open(walConfig(filepath.Join(l.dir, "wal"), r, horizon, nil))
	if err != nil {
		return err
	}
	rec := w.Recover()
	tr.End(id)
	l.walOpenS = tr.spans[id].Dur().Seconds()
	if err := w.Close(); err != nil {
		return err
	}
	if len(rec.Series) != r.wl.Series {
		return fmt.Errorf("wal recovery: %d series, want %d", len(rec.Series), r.wl.Series)
	}

	err = l.hubLog.Close()
	l.hubLog = nil
	if err != nil {
		return err
	}
	if l.hubLog, err = wal.Open(walConfig(filepath.Join(l.dir, "hub"), r, horizon, nil)); err != nil {
		return err
	}
	id = tr.Begin("hub.new", -1, -1)
	hub, err := server.NewHub(server.HubConfig{Stream: streamConfig(), WAL: l.hubLog})
	tr.End(id)
	if err != nil {
		return err
	}
	l.hubNewS = tr.spans[id].Dur().Seconds()
	if hub.Len() != r.wl.Series {
		return fmt.Errorf("hub restore: %d series, want %d", hub.Len(), r.wl.Series)
	}
	return nil
}

// spansStarted reads the in-program tracer's span counter from the
// handler's own /metrics.
func spansStarted(h http.Handler) (float64, error) {
	rec := serve(h, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %d", rec.Code)
	}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "asap_trace_spans_started_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("no asap_trace_spans_started_total in /metrics")
}

// countingFS counts the bytes the log writes.
type countingFS struct {
	wal.FS
	n atomic.Int64
}

type countingFile struct {
	vfs.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, n: &c.n}, nil
}

// spanCost is what one Begin/End pair adds to a traced call, in
// microseconds: the same loop with tracing on minus with it off. Every
// replayed request carries one span per layer it passes.
func spanCost() float64 {
	const n = 100_000
	loop := func(on bool) time.Duration {
		t := newTracer(on)
		t.spans = make([]Span, 0, n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.End(t.Begin("span", i, -1))
		}
		return time.Since(t0)
	}
	loop(true) // fault the pages in
	return us(loop(true)-loop(false)) / n
}

// replayKernels times the search kernels on each sampled series' final
// window, aggregated the way the streamer aggregates it.
func replayKernels(tr *Tracer, r *Run) error {
	st, err := asap.NewStreamer(streamConfig())
	if err != nil {
		return err
	}
	ratio := st.Ratio()
	for s := 0; s < kernelSeries && s < r.wl.Series; s++ {
		window := make([]float64, windowPoints)
		vs, total := r.gen.values[s], r.gen.cursor[s]
		for i := range window {
			window[i] = vs[(total-windowPoints+i)%len(vs)]
		}
		agg, err := preagg.Aggregate(window, ratio)
		if err != nil {
			return err
		}
		maxLag := int(float64(len(agg))*core.DefaultMaxWindowFraction) + 2
		if maxLag > len(agg)-1 {
			maxLag = len(agg) - 1
		}
		an := acf.NewAnalyzer()
		for k := 0; k < kernelReps; k++ {
			id := tr.Begin("acf.compute", s, -1)
			_, err = an.Compute(agg, maxLag)
			tr.End(id)
			if err != nil {
				return err
			}
		}
		corr, err := an.Compute(agg, maxLag)
		if err != nil {
			return err
		}
		var res core.Result
		for k := 0; k < kernelReps; k++ {
			id := tr.Begin("core.search", s, -1)
			err = core.SearchInto(&res, core.StrategyASAP, agg, core.SearchOptions{ACF: corr})
			tr.End(id)
			if err != nil {
				return err
			}
		}
		for k := 0; k < kernelReps; k++ {
			id := tr.Begin("core.evaluate", s, -1)
			_, err = core.Evaluate(agg, res.Window)
			tr.End(id)
			if err != nil {
				return err
			}
		}
		n := 1
		for n < 2*len(agg) {
			n <<= 1
		}
		plan, err := fft.NewRealPlan(n)
		if err != nil {
			return err
		}
		src := make([]float64, n)
		copy(src, agg)
		dst := make([]complex128, plan.SpectrumLen())
		for k := 0; k < kernelReps; k++ {
			id := tr.Begin("fft.real_forward", s, -1)
			plan.Forward(dst, src)
			tr.End(id)
		}
	}
	return nil
}

type replicaReplay struct {
	polls, bytes, resyncs, retries float64
}

// replayReplica bootstraps an in-process follower of the run's primary
// on an empty dir, polling once at a time until it reports zero lag.
func replayReplica(ctx context.Context, tr *Tracer, dir string, r *Run) (replicaReplay, error) {
	var out replicaReplay
	horizon, err := horizonPoints()
	if err != nil {
		return out, err
	}
	f, err := replica.New(replica.Config{Dir: dir, Primary: r.primary.Base, Logf: quietLogf})
	if err != nil {
		return out, err
	}
	defer f.Stop()
	hub, err := server.NewHub(server.HubConfig{Stream: streamConfig()})
	if err != nil {
		return out, err
	}
	if _, err := f.WarmUp(hub, horizon); err != nil {
		return out, err
	}
	for i := 0; ; i++ {
		if i == 1000 {
			return out, fmt.Errorf("follower not synced after %d polls", i)
		}
		id := tr.Begin("replica.poll", i, -1)
		err := f.PollOnce(ctx)
		tr.End(id)
		if err != nil {
			return out, fmt.Errorf("replica poll %d: %w", i, err)
		}
		if st := f.Status(); st.Synced && st.RecordsBehind == 0 {
			break
		}
	}
	st := f.Status()
	out.polls = float64(st.Polls)
	out.bytes = float64(st.BytesFetched)
	out.resyncs = float64(st.Resyncs)
	out.retries = float64(st.Retries)
	if hub.Len() != r.wl.Series {
		return out, fmt.Errorf("follower has %d series, want %d", hub.Len(), r.wl.Series)
	}
	return out, nil
}
