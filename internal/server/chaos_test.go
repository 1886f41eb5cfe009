package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/asap-go/asap/internal/faultfs"
	"github.com/asap-go/asap/internal/replica"
)

// chaosServerConfig is a strict-durability server (every acknowledged
// append fsynced) whose WAL runs on a fault injector, with the reopen
// schedule compressed so recovery is test-speed.
func chaosServerConfig(dir string, ffs *faultfs.FS) Config {
	cfg := durableConfig(dir) // FsyncEvery: 0 — deterministic 503s
	cfg.walFS = ffs
	cfg.walReopenBackoff = time.Millisecond
	cfg.walReopenMaxBackoff = 20 * time.Millisecond
	return cfg
}

// lineBody renders vals in the ingest line protocol for series name.
func lineBody(name string, vals []float64) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestChaosDegradedShardServesReadsAndRecovers is the server-level
// acceptance scenario for graceful WAL degradation: an fsync failure
// degrades the shard — reads, /plot.svg, and an already-open SSE
// stream keep serving from memory while ingest answers 503 with
// Retry-After, /readyz goes 503 while /healthz stays 200 — then the
// fault clears, the background reopen restores durability, the client
// retries the rejected batch, and every frame (live, streamed, and
// after a restart) is bit-identical to an uninterrupted control.
func TestChaosDegradedShardServesReadsAndRecovers(t *testing.T) {
	control, err := New(testConfig()) // never-faulted twin
	if err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(nil)
	dir := t.TempDir()
	s, err := New(chaosServerConfig(dir, ffs))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// pushBoth lands one batch over HTTP on the chaos server and
	// directly on the control, keeping the twins in lockstep.
	pushBoth := func(n, off int) {
		t.Helper()
		vals := sineValues(n, off)
		if code, body := post(t, ts.URL+"/ingest", lineBody("cpu", vals)); code != 200 {
			t.Fatalf("ingest = %d %s", code, body)
		}
		if err := control.Hub().PushBatch("cpu", vals); err != nil {
			t.Fatal(err)
		}
	}
	pushBoth(600, 0)

	// A subscriber connects before the fault and must survive it.
	stream, cancel := openStream(t, ts.URL+"/stream?series=cpu", nil)
	defer cancel()
	nextFrame(t, stream, 2*time.Second) // connect-time catch-up frame

	// The disk starts failing every fsync.
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, Err: syscall.EIO})

	// Strict mode: the append cannot be made durable, so ingest is
	// refused with 503 + Retry-After and the batch leaves no trace.
	lost := sineValues(120, 600)
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(lineBody("cpu", lost)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded ingest 503 without Retry-After")
	}

	// Reads keep serving from memory.
	for _, path := range []string{"/frame?series=cpu", "/plot.svg?series=cpu", "/series", "/stats"} {
		if code, body := get(t, ts.URL+path); code != 200 {
			t.Errorf("degraded %s = %d %s", path, code, body)
		}
	}

	// Liveness vs readiness: the process is healthy (restarting it
	// would destroy the state it is gracefully serving), but it should
	// not take traffic.
	if code, body := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("degraded /healthz = %d %s, want 200", code, body)
	}
	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded /readyz = %d %s, want 503 naming the degraded shard", code, body)
	}
	if st, ok := s.WALStats(); !ok || st.DegradedShards != 1 {
		t.Fatalf("WALStats degraded = %+v, %v", st, ok)
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(body, "asap_wal_degraded_shards 1") {
		t.Error("/metrics does not report the degraded shard")
	}
	var stats struct {
		WAL struct {
			DegradedShards *int `json:"degraded_shards"`
		} `json:"wal"`
	}
	if _, body := get(t, ts.URL+"/stats"); json.Unmarshal([]byte(body), &stats) != nil ||
		stats.WAL.DegradedShards == nil || *stats.WAL.DegradedShards != 1 {
		t.Errorf("/stats does not report the degraded shard: %s", body)
	}

	// The operator fixes the disk; the background reopen restores
	// durability without a restart.
	ffs.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.WALStats()
		if ok && st.DegradedShards == 0 && st.WedgedShards == 0 && st.ReopenRecoveries > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never recovered: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("post-recovery /readyz = %d %s", code, body)
	}

	// The client retries the rejected batch — exactly the Retry-After
	// contract — and the twins converge bit-identically.
	pushBoth(120, 600)
	want, _ := control.Hub().Frame("cpu")
	got, ok := s.Hub().Frame("cpu")
	if !ok {
		t.Fatal("cpu missing after recovery")
	}
	requireFramesEqual(t, "post-recovery", want, got)

	// The pre-fault SSE subscriber receives the post-recovery frame on
	// the same connection.
	f, _ := nextFrame(t, stream, 2*time.Second)
	if f.Sequence != want.Sequence || len(f.Values) != len(want.Values) {
		t.Fatalf("streamed frame seq %d/%d values, want %d/%d",
			f.Sequence, len(f.Values), want.Sequence, len(want.Values))
	}
	for i := range want.Values {
		if f.Values[i] != want.Values[i] {
			t.Fatalf("streamed value %d: %v != %v", i, f.Values[i], want.Values[i])
		}
	}

	// And the durable log is intact: a restarted server replays the
	// chaos-era history and its post-restart frames stay bit-identical
	// to the control's (Frame is nil until the first post-restart
	// refresh, by contract — keep feeding until one lands).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	defer s2.Close()
	restarted := false
	for c := 0; c < 10; c++ {
		vals := sineValues(30, 720+c*30)
		if err := control.Hub().PushBatch("cpu", vals); err != nil {
			t.Fatal(err)
		}
		if err := s2.Hub().PushBatch("cpu", vals); err != nil {
			t.Fatal(err)
		}
		want, _ := control.Hub().Frame("cpu")
		got2, ok := s2.Hub().Frame("cpu")
		if !ok {
			t.Fatal("cpu missing after restart")
		}
		if got2 != nil {
			restarted = true
			requireFramesEqual(t, fmt.Sprintf("post-restart chunk %d", c), want, got2)
		}
	}
	if !restarted {
		t.Fatal("restarted server never produced a frame")
	}
}

// TestChaosPrimaryFlappingFollowerNoResync: a tailing follower rides
// out repeated primary restarts — polls fail transiently while the
// primary is down, resume from the durable cursor when it returns, and
// never fall back to a mirror resync.
func TestChaosPrimaryFlappingFollowerNoResync(t *testing.T) {
	control, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dirP := t.TempDir()
	primary, err := New(durableConfig(dirP))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: primary.Handler()}
	go hs.Serve(ln)

	pushBoth := func(n, off int) {
		t.Helper()
		vals := sineValues(n, off)
		if err := control.Hub().PushBatch("cpu", vals); err != nil {
			t.Fatal(err)
		}
		if err := primary.Hub().PushBatch("cpu", vals); err != nil {
			t.Fatal(err)
		}
	}
	pushBoth(700, 0)

	fol, err := New(followerConfig(t.TempDir(), "http://"+addr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	pollOnce(t, fol) // bootstrap

	off := 700
	saw := false
	for flap := 0; flap < 3; flap++ {
		// Restart the primary: listener gone, process down.
		hs.Close()
		if err := primary.Close(); err != nil {
			t.Fatal(err)
		}

		// While it is down, polls fail with a transient error — the
		// retry policy's signal to back off and try again, not resync.
		err := fol.Follower().PollOnce(context.Background())
		if err == nil {
			t.Fatalf("flap %d: poll succeeded against a dead primary", flap)
		}
		if !replica.Transient(err) {
			t.Fatalf("flap %d: primary-down error classified fatal: %v", flap, err)
		}

		// The primary comes back on the same address with the same WAL.
		primary, err = New(durableConfig(dirP))
		if err != nil {
			t.Fatalf("flap %d: primary restart: %v", flap, err)
		}
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("flap %d: relisten: %v", flap, err)
		}
		hs = &http.Server{Handler: primary.Handler()}
		go hs.Serve(ln)

		pushBoth(120, off)
		off += 120
		pollOnce(t, fol)

		st := fol.Follower().Status()
		if st.Resyncs != 0 {
			t.Fatalf("flap %d: follower resynced %d times riding out a restart", flap, st.Resyncs)
		}
		if !st.Synced || st.RecordsBehind != 0 {
			t.Fatalf("flap %d: follower not caught up: %+v", flap, st)
		}
		want, _ := control.Hub().Frame("cpu")
		got, ok := fol.Hub().Frame("cpu")
		if !ok {
			t.Fatalf("flap %d: follower lost cpu", flap)
		}
		if got != nil {
			saw = true
			requireFramesEqual(t, fmt.Sprintf("flap %d", flap), want, got)
		}
	}
	if !saw {
		t.Fatal("follower never produced a frame across the flaps")
	}
	hs.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosFollowerRunRidesOutRestart runs the same story through the
// follower's real retry loop under -race: the loop accumulates Retries
// (capped-backoff polls against the dead primary) but zero Resyncs,
// and converges bit-identically once the primary returns.
func TestChaosFollowerRunRidesOutRestart(t *testing.T) {
	control, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dirP := t.TempDir()
	primary, err := New(durableConfig(dirP))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: primary.Handler()}
	go hs.Serve(ln)

	pushBoth := func(s *Server, n, off int) {
		t.Helper()
		vals := sineValues(n, off)
		if err := control.Hub().PushBatch("cpu", vals); err != nil {
			t.Fatal(err)
		}
		if err := s.Hub().PushBatch("cpu", vals); err != nil {
			t.Fatal(err)
		}
	}
	pushBoth(primary, 700, 0)

	fcfg := followerConfig(t.TempDir(), "http://"+addr)
	fcfg.FollowPoll = 20 * time.Millisecond
	fol, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	lnF, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(context.Background())
	fdone := make(chan error, 1)
	go func() { fdone <- fol.Serve(fctx, lnF) }()
	baseF := "http://" + lnF.Addr().String()

	waitRaw := func(label string, n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fol.Hub().Stats()["cpu"].RawPoints != n {
			if time.Now().After(deadline) {
				t.Fatalf("%s: follower stuck at %d raw points, want %d (%+v)",
					label, fol.Hub().Stats()["cpu"].RawPoints, n, fol.Follower().Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitRaw("bootstrap", 700)

	// Primary goes down; the loop keeps retrying with backoff.
	hs.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fol.Follower().Status().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry loop never registered a failed poll")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Reads still serve from the mirror throughout the outage.
	if code, _ := get(t, baseF+"/frame?series=cpu"); code != 200 {
		t.Fatalf("follower reads down during primary outage")
	}

	// The primary restarts; the loop converges without resync.
	primary, err = New(durableConfig(dirP))
	if err != nil {
		t.Fatal(err)
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs = &http.Server{Handler: primary.Handler()}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		primary.Close()
	}()
	pushBoth(primary, 300, 700)
	waitRaw("reconverge", 1000)

	st := fol.Follower().Status()
	if st.Resyncs != 0 {
		t.Fatalf("follower resynced %d times riding out the restart (retries=%d)", st.Resyncs, st.Retries)
	}
	if st.Retries == 0 {
		t.Fatal("follower reports zero retries after a primary outage")
	}
	want, _ := control.Hub().Frame("cpu")
	got, _ := fol.Hub().Frame("cpu")
	if want == nil || got == nil {
		t.Fatalf("missing frames: control=%v follower=%v", want != nil, got != nil)
	}
	requireFramesEqual(t, "run-loop reconverge", want, got)

	fcancel()
	if err := <-fdone; err != nil {
		t.Fatal(err)
	}
}
