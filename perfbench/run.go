package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// setups is how many times a run starts a server and warm-fills it;
// setup_s is their median. The last server serves the timed traffic,
// the one before it is the archive that restarts and catch-ups use.
const setups = 3

// rounds is how many times a run cycles through its workload: a slice
// of every phase, then the workload's restarts and catch-ups. Host
// contention comes and goes over seconds; spreading each metric's
// samples over the whole run keeps one contended stretch from setting
// it.
const rounds = 8

// warmUp is the start of each open-loop phase whose samples are not
// counted: connections open and the first requests of a new traffic
// mix settle. They are still sent and checked.
const warmUp = 250 * time.Millisecond

// satWindow is the slice of a closed-loop phase whose throughput is one
// sample; the reported capacity is the median sample, so a single
// stall does not set it.
const satWindow = 250 * time.Millisecond

// archive is a warm-filled server that receives no timed traffic: each
// round kills and restarts it and bootstraps followers from it, so
// every recover_s and catchup_s sample covers the same log whenever in
// the run it is taken.
type archive struct {
	p   *Proc
	gen *Gen // its own cursors: probes of the archive leave the primary's inputs alone
	// ref is fed every batch the archive acknowledged and is never
	// restarted.
	ref *Reference
}

// Run is one benchmark run of one workload.
type Run struct {
	wl      Workload
	seed    int64
	seconds float64
	bin     string
	dir     string

	gen     *Gen
	ref     *Reference
	primary *Proc
	arch    archive
	// archConn is the connection that probes the archive.
	archConn *conn

	// The ingest requests of the warm fill and of the timed phases, in
	// the order each series received them; the traced replay feeds
	// these to each layer.
	warm  [][]Group
	timed [][]Group
	reads []int // series the read phases read

	steal           *stealClock
	setupS          []Sample
	phases          int // phases run so far, to number sample windows
	acks            Latencies
	delivers        Latencies
	frameReads      Latencies
	plotReads       Latencies
	satPoints       int
	satRates        []Sample // acknowledged points/s per saturation window
	recovers        []Sample
	catchups        []Sample
	hwm             float64
	attempted       int
	failed          int
	lates           []float64
	backlogMax      int
	saturatedPhases []string
	sseFrames       int
	sseBytes        int64
	bcast           broadcastStats
	mismatches      []string
	// divergent counts series frames, over restoreChecks checks, that
	// match the restored reference but not the never-restarted one.
	divergent     int
	restoreChecks int
	last          time.Time // end of the previous stage
}

type broadcastStats struct {
	Published int64 `json:"published"`
	Delivered int64 `json:"delivered"`
	Coalesced int64 `json:"coalesced"`
	Evicted   int64 `json:"evicted"`
}

var (
	procsMu sync.Mutex
	procs   []*Proc
)

func (r *Run) start(args []string, name string) (*Proc, error) {
	p, err := startProc(r.bin, filepath.Join(r.dir, name+".log"), args)
	if err != nil {
		return nil, err
	}
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

// stopAll stops every server the run started and waits for each.
func stopAll() {
	procsMu.Lock()
	defer procsMu.Unlock()
	for _, p := range procs {
		if p.alive() {
			p.Kill()
		}
	}
}

// stage logs how long the run spent since the previous stage.
func (r *Run) stage(name string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "perfbench: %-10s %6.2fs\n", name, now.Sub(r.last).Seconds())
	r.last = now
}

func (r *Run) mismatch(format string, args ...interface{}) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// pauseGC collects the generator's garbage, then stops its collector
// until the returned function restarts it. The generator shares two
// CPUs with the servers, and a collection in the middle of a timed
// stretch would land in the servers' numbers. A phase allocates a few
// tens of MB.
func pauseGC() (resume func()) {
	runtime.GC()
	debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(genGCPercent) }
}

// since is the time from t0 to now as a sample in seconds.
func since(t0 time.Time) Sample {
	now := time.Now()
	return Sample{V: now.Sub(t0).Seconds(), From: t0, To: now}
}

func (r *Run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// execute runs set-up, then the rounds, each a slice of every phase
// followed by restarts and catch-ups of the archive.
func (r *Run) execute(ctx context.Context) error {
	var err error
	r.gen = newGen(r.wl.Series, r.seed)
	if r.ref, err = newReference(r.wl.Series); err != nil {
		return err
	}
	if r.arch.ref, err = newReference(r.wl.Series); err != nil {
		return err
	}
	r.last = time.Now()
	if err := r.setup(ctx); err != nil {
		return err
	}
	r.stage("setup")
	if err := r.checkFrames("primary after set-up", r.primary, r.ref, nil); err != nil {
		return err
	}
	if err := r.checkFrames("archive after set-up", r.arch.p, r.arch.ref, nil); err != nil {
		return err
	}
	r.waitDurable()
	for k := 0; k < rounds; k++ {
		for _, ph := range r.wl.Phases {
			if err := r.phase(ph, r.budget(ph.Share)/rounds); err != nil {
				return fmt.Errorf("phase %s: %w", ph.Name, err)
			}
			r.stage(ph.Name)
		}
		if err := r.restartAndCatchUp(ctx, k); err != nil {
			return err
		}
		r.stage("recovery")
	}
	if err := r.checkFrames("primary after phases", r.primary, r.ref, nil); err != nil {
		return err
	}
	if err := r.checkTotals(r.primary, r.ref); err != nil {
		return err
	}
	st, err := r.stats(r.primary)
	if err != nil {
		return err
	}
	r.bcast = st
	r.noteHWM(r.primary)
	r.noteHWM(r.arch.p)
	return nil
}

// setup starts a server and fills every series' window, setups times.
// The last server stays up as the primary and the one before it as the
// archive.
func (r *Run) setup(ctx context.Context) error {
	for i := 0; i < setups; i++ {
		for s := range r.gen.cursor {
			r.gen.cursor[s] = 0
		}
		warm := r.gen.warmFill()
		port, err := freePort()
		if err != nil {
			return err
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("server-%d", i))
		t0 := time.Now()
		p, err := r.start(serverArgs(port, dir, r.wl.Fsync), fmt.Sprintf("server-%d", i))
		if err != nil {
			return err
		}
		if _, err := p.waitReady(ctx, 0); err != nil {
			return err
		}
		half := len(warm) / 2
		var wg sync.WaitGroup
		var failed [2]int
		for k, part := range [][][]Group{warm[:half], warm[half:]} {
			wg.Add(1)
			go func(k int, part [][]Group) {
				defer wg.Done()
				c := newConn(p.Base)
				defer c.close()
				for _, g := range part {
					if !c.do(http.MethodPost, "/ingest", body(g)) {
						failed[k]++
					}
				}
			}(k, part)
		}
		wg.Wait()
		r.setupS = append(r.setupS, since(t0))
		if failed[0]+failed[1] > 0 {
			return fmt.Errorf("warm fill: %d requests failed", failed[0]+failed[1])
		}
		switch i {
		case setups - 1:
			r.primary, r.warm = p, warm
			for _, g := range warm {
				r.ref.apply(g)
			}
		case setups - 2:
			r.arch.p, r.arch.gen = p, r.gen.fork()
			r.archConn = newConn(p.Base)
			for _, g := range warm {
				r.arch.ref.apply(g)
			}
		default:
			p.Kill()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// phase runs one timed traffic pattern and folds its samples in.
func (r *Run) phase(ph Phase, dur time.Duration) error {
	var sse *sseClient
	if ph.SSE {
		var err error
		watched := ph.Writers[0].Series
		if sse, err = startSSE(r.primary.Base, watched, r.wl.Series); err != nil {
			return err
		}
		// Wait for the connect-time catch-up so deliveries measure
		// ingest, not subscription.
		deadline := time.Now().Add(10 * time.Second)
		for k := 0; k < len(watched) && time.Now().Before(deadline); {
			if sse.newestSeq(watched[k]) >= 0 {
				k++
				continue
			}
			time.Sleep(time.Millisecond)
		}
	}
	var closed [][]request
	if ph.Closed {
		for _, w := range ph.Writers {
			closed = append(closed, prebuild(r.gen, w, dur))
		}
	}
	resume := pauseGC()
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(dur)
	counted := func(o Op) bool { return o.Due.Sub(start) >= warmUp }
	r.phases++
	window := func(due time.Time) int { return r.phases<<16 + int(due.Sub(start)/statWindow) }
	sent := make([][]Sent, len(ph.Writers))
	var reads []Read
	var wg sync.WaitGroup
	for k, w := range ph.Writers {
		wg.Add(1)
		go func(k int, w Writer) {
			defer wg.Done()
			c := newConn(r.primary.Base)
			defer c.close()
			if ph.Closed {
				sent[k] = runClosed(c, r.gen, closed[k], start, end)
			} else {
				sent[k] = runOpen(c, r.gen, w, start, end)
			}
		}(k, w)
	}
	if ph.Reader != nil {
		r.reads = ph.Reader.Series
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(r.primary.Base)
			defer c.close()
			reads = runReader(c, ph.Reader, start, end)
		}()
	}
	wg.Wait()
	resume()
	// Only windows the closed loop covered whole count: a writer that
	// ran out of requests stopped early.
	covered := end
	for _, ss := range sent {
		if n := len(ss); ph.Closed && n > 0 && ss[n-1].Op.Done.Before(covered) {
			covered = ss[n-1].Op.Done
		}
	}
	satWindows := make([]int, int(covered.Sub(start)/satWindow))

	type want struct {
		series, seq int
		due         time.Time
	}
	var wants []want
	last := map[int]int{}
	for k, ss := range sent {
		var ops []Op
		for _, s := range ss {
			r.attempted++
			seqs := r.ref.apply(s.Groups)
			r.timed = append(r.timed, s.Groups)
			n := 0
			for gi, g := range s.Groups {
				n += len(g.Values)
				if seqs[gi] > 0 {
					if counted(s.Op) {
						wants = append(wants, want{g.Series, seqs[gi], s.Op.Due})
					}
					last[g.Series] = seqs[gi]
				}
			}
			if !s.Op.OK {
				r.failed++
				continue
			}
			if ph.Closed {
				r.satPoints += n
				if w := int(s.Op.Done.Sub(start) / satWindow); w < len(satWindows) {
					satWindows[w] += n
				}
			} else if counted(s.Op) {
				r.acks.add(window(s.Op.Due), s.Op.Due, s.Op.Done, ms(s.Op.Latency()))
			}
			ops = append(ops, s.Op)
		}
		if !ph.Closed {
			r.noteOpenLoop(fmt.Sprintf("%s/writer%d", ph.Name, k), ops)
		}
	}
	if ph.Closed {
		for i, pts := range satWindows {
			from := start.Add(time.Duration(i) * satWindow)
			r.satRates = append(r.satRates, Sample{V: float64(pts) / satWindow.Seconds(), From: from, To: from.Add(satWindow)})
		}
	}
	if ph.Reader != nil {
		var ops []Op
		for _, rd := range reads {
			r.attempted++
			if !rd.Op.OK {
				r.failed++
				continue
			}
			switch {
			case !counted(rd.Op):
			case rd.Plot:
				r.plotReads.add(window(rd.Op.Due), rd.Op.Due, rd.Op.Done, ms(rd.Op.Latency()))
			default:
				r.frameReads.add(window(rd.Op.Due), rd.Op.Due, rd.Op.Done, ms(rd.Op.Latency()))
			}
			ops = append(ops, rd.Op)
		}
		r.noteOpenLoop(ph.Name+"/reader", ops)
	}
	if sse == nil {
		return nil
	}
	// Give the last frames time to arrive, then match each frame-producing
	// batch to the first SSE frame at or past the sequence it produced.
	deadline := time.Now().Add(3 * time.Second)
	for s, seq := range last {
		for sse.newestSeq(s) < seq && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	streamErr := sse.stop()
	for _, w := range wants {
		r.attempted++
		at, ok := sse.firstAtOrAfter(w.series, w.seq)
		if !ok {
			r.failed++
			continue
		}
		r.delivers.add(window(w.due), w.due, at, ms(at.Sub(w.due)))
	}
	if streamErr != nil {
		r.failed++
		r.mismatch("SSE: %v", streamErr)
	}
	r.sseFrames += sse.frames
	r.sseBytes += sse.bytes
	return nil
}

func (r *Run) noteOpenLoop(name string, ops []Op) {
	for _, o := range ops {
		r.lates = append(r.lates, ms(o.Sent.Sub(o.Due)))
		if o.Backlog > r.backlogMax {
			r.backlogMax = o.Backlog
		}
	}
	if saturated(ops) {
		r.saturatedPhases = append(r.saturatedPhases, name)
	}
}

// waitDurable gives the batched-fsync flusher time to cover every
// acknowledged append.
func (r *Run) waitDurable() { time.Sleep(2*r.wl.Fsync + 100*time.Millisecond) }

// frames fetches every series' current frame from p.
func (r *Run) frames(p *Proc) ([]*WireFrame, error) {
	out := make([]*WireFrame, r.wl.Series)
	for i := range out {
		var f *WireFrame
		code, err := getJSON(p.Base+"/frame?series="+seriesName(i), &f)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("GET /frame %s: status %d, %v", seriesName(i), code, err)
		}
		out[i] = f
	}
	return out, nil
}

// checkTotals compares each series' raw point count on p with want:
// after a restart, nothing acknowledged may be missing.
func (r *Run) checkTotals(p *Proc, want *Reference) error {
	var list struct {
		Series []struct {
			Name      string `json:"name"`
			RawPoints int    `json:"raw_points"`
		} `json:"series"`
	}
	if code, err := getJSON(p.Base+"/series", &list); err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /series: status %d, %v", code, err)
	}
	if len(list.Series) != r.wl.Series {
		r.mismatch("%d series listed, want %d", len(list.Series), r.wl.Series)
	}
	for _, s := range list.Series {
		var i int
		if _, err := fmt.Sscanf(s.Name, "s%d", &i); err != nil || i >= r.wl.Series {
			r.mismatch("unexpected series %q", s.Name)
			continue
		}
		if n := want.rawPoints(i); s.RawPoints != n {
			r.mismatch("%s: %d raw points, want %d", s.Name, s.RawPoints, n)
		}
	}
	return nil
}

func (r *Run) stats(p *Proc) (broadcastStats, error) {
	var st struct {
		Stream broadcastStats `json:"stream"`
	}
	code, err := getJSON(p.Base+"/stats", &st)
	if err != nil || code != http.StatusOK {
		return broadcastStats{}, fmt.Errorf("GET /stats: status %d, %v", code, err)
	}
	return st.Stream, nil
}

func (r *Run) noteHWM(p *Proc) {
	if v, err := p.HWM(); err == nil && v > r.hwm {
		r.hwm = v
	}
}

// restartAndCatchUp is round k's recovery work on the archive: it
// kills and restarts it over its data dir wl.Restarts times, then
// starts wl.CatchUps followers on empty data dirs one after another,
// timing each until it has caught up. A restored or bootstrapped series
// shows a frame only after its next refresh, so the archive is then
// probed, and every frame of the archive and of each follower is
// compared with a reference restored from the history each one
// restored.
func (r *Run) restartAndCatchUp(ctx context.Context, k int) error {
	defer pauseGC()()
	a := &r.arch
	for n := 0; n < r.wl.Restarts; n++ {
		r.noteHWM(a.p)
		a.p.Kill()
		start := time.Now()
		p, err := r.start(a.p.args, fmt.Sprintf("restart-%d-%d", k, n))
		if err != nil {
			return err
		}
		ready, err := p.waitReady(ctx, r.wl.Series)
		if err != nil {
			return fmt.Errorf("restart %d/%d: %w", k, n, err)
		}
		r.recovers = append(r.recovers, Sample{V: ready.Sub(start).Seconds(), From: start, To: ready})
		a.p = p
		r.archConn.close()
		r.archConn = newConn(p.Base)
		if err := r.checkTotals(p, a.ref); err != nil {
			return err
		}
	}
	restarted, err := restoredReference(a.gen)
	if err != nil {
		return err
	}
	// One point moves the archive's replication version off its start
	// value. A fresh follower's first long-poll asks for version 0, so
	// against a server that has made nothing durable since it started,
	// that poll would park for the whole long-poll interval and
	// catchup_s would time the parking, not the catch-up.
	r.send(a, []Group{{Series: 0, Values: a.gen.take(0, 1)}}, restarted)
	r.waitDurable()
	bootstrapped, err := restoredReference(a.gen)
	if err != nil {
		return err
	}
	var followers []*Proc
	defer func() {
		for _, f := range followers {
			f.Kill()
		}
		for n := range followers {
			_ = os.RemoveAll(r.followerDir(k, n)) // a leftover mirror only costs disk inside the work dir
		}
	}()
	for n := 0; n < r.wl.CatchUps; n++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		args := serverArgs(port, r.followerDir(k, n), r.wl.Fsync, "-follow", a.p.Base)
		start := time.Now()
		f, err := r.start(args, fmt.Sprintf("follower-%d-%d", k, n))
		if err != nil {
			return err
		}
		followers = append(followers, f)
		if err := r.waitSynced(ctx, f); err != nil {
			return fmt.Errorf("follower %d/%d: %w", k, n, err)
		}
		r.catchups = append(r.catchups, since(start))
	}
	r.probe(a, restarted, bootstrapped)
	r.waitDurable()
	if err := r.checkFrames("archive after restart", a.p, restarted, a.ref); err != nil {
		return err
	}
	for n, f := range followers {
		if err := r.waitSynced(ctx, f); err != nil {
			return fmt.Errorf("follower %d/%d after probe: %w", k, n, err)
		}
		if err := r.checkFrames(fmt.Sprintf("follower %d/%d", k, n), f, bootstrapped, a.ref); err != nil {
			return err
		}
	}
	return nil
}

func (r *Run) followerDir(k, n int) string {
	return filepath.Join(r.dir, fmt.Sprintf("follower-%d-%d", k, n))
}

// probe pushes one 64-point batch to every series of the archive,
// enough to cross a refresh deadline.
func (r *Run) probe(a *archive, refs ...*Reference) {
	for s := 0; s < r.wl.Series; s++ {
		r.send(a, []Group{{Series: s, Values: a.gen.take(s, 64)}}, refs...)
	}
}

// send ingests one request into the archive and feeds the archive's own
// reference and each of refs the same batches.
func (r *Run) send(a *archive, g []Group, refs ...*Reference) {
	r.attempted++
	if !r.archConn.do(http.MethodPost, "/ingest", body(g)) {
		r.failed++
	}
	a.ref.apply(g)
	for _, ref := range refs {
		ref.apply(g)
	}
}

// checkFrames compares p's frames with want, which must match bit for
// bit. If p's series were restored, plain is the reference that never
// restarted, and the series whose frame differs from it are counted.
func (r *Run) checkFrames(who string, p *Proc, want, plain *Reference) error {
	got, err := r.frames(p)
	if err != nil {
		return err
	}
	for i, f := range got {
		if err := sameFrame(want.frame(i), f); err != nil {
			r.mismatch("%s %s: %v", who, seriesName(i), err)
		}
	}
	if plain == nil {
		return nil
	}
	r.restoreChecks++
	for i, f := range got {
		if sameFrame(plain.frame(i), f) != nil {
			r.divergent++
		}
	}
	return nil
}

// waitSynced polls the follower until it reports zero replication lag
// with every series present.
func (r *Run) waitSynced(ctx context.Context, p *Proc) error {
	for {
		if !p.alive() {
			return fmt.Errorf("follower exited:\n%s", p.tailLog())
		}
		var h struct {
			Series      int `json:"series"`
			Replication struct {
				Synced        bool  `json:"synced"`
				RecordsBehind int64 `json:"records_behind"`
			} `json:"replication"`
		}
		code, err := getJSON(p.Base+"/healthz", &h)
		if err == nil && code == http.StatusOK && h.Replication.Synced && h.Replication.RecordsBehind == 0 && h.Series == r.wl.Series {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("not caught up: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// acked is how many points the primary holds: everything acknowledged.
func (r *Run) acked() int {
	n := 0
	for s := range r.ref.st {
		n += r.ref.rawPoints(s)
	}
	return n
}
