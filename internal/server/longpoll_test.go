package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// manifestVersion fetches /replica/segments with the given query and
// returns the manifest's append version.
func manifestVersion(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("manifest = %d %s", resp.StatusCode, body)
	}
	var man struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatalf("manifest decode: %v (%s)", err, body)
	}
	return man.Version
}

// TestReplicaManifestLongPoll: GET /replica/segments?wait_ms=&version=
// parks while the follower's version is current, wakes on the next
// append, and answers immediately for a stale version.
func TestReplicaManifestLongPoll(t *testing.T) {
	s, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Hub().PushBatch("cpu", sineValues(400, 0)); err != nil {
		t.Fatal(err)
	}

	version := manifestVersion(t, ts.URL+"/replica/segments")
	if version == 0 {
		t.Fatal("append version still zero after an ingest")
	}

	// A stale version answers immediately even with a long wait.
	start := time.Now()
	if got := manifestVersion(t, fmt.Sprintf("%s/replica/segments?wait_ms=10000&version=%d", ts.URL, version-1)); got != version {
		t.Fatalf("stale poll version = %d, want %d", got, version)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stale poll parked %s", elapsed)
	}

	// A current version parks until the next append bumps it.
	type reply struct {
		version int64
		waited  time.Duration
	}
	got := make(chan reply, 1)
	start = time.Now()
	go func() {
		v := manifestVersion(t, fmt.Sprintf("%s/replica/segments?wait_ms=20000&version=%d", ts.URL, version))
		got <- reply{v, time.Since(start)}
	}()
	select {
	case r := <-got:
		t.Fatalf("current-version poll returned in %s with version %d", r.waited, r.version)
	case <-time.After(200 * time.Millisecond):
	}
	if err := s.Hub().PushBatch("cpu", sineValues(10, 400)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.version <= version {
			t.Fatalf("post-append version = %d, want > %d", r.version, version)
		}
		if r.waited > 5*time.Second {
			t.Fatalf("woken poll took %s", r.waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke on the append")
	}
}

// TestFollowerLongPollCutsLag: a follower whose poll interval is an
// hour still applies a primary append within seconds, because its held
// manifest request is woken when the append becomes durable instead of
// waiting for the ticker — the long-poll replication-lag contract.
// Runs in both fsync modes: under batched fsync the wake must track
// the durable watermark, not the append — an append-time bump would
// wake the follower to a manifest that does not yet expose the new
// bytes and strand it until the hour elapsed.
func TestFollowerLongPollCutsLag(t *testing.T) {
	t.Run("strict-fsync", func(t *testing.T) { testFollowerLongPoll(t, 0) })
	t.Run("batched-fsync", func(t *testing.T) { testFollowerLongPoll(t, 25*time.Millisecond) })
}

func testFollowerLongPoll(t *testing.T, fsyncEvery time.Duration) {
	pcfg := durableConfig(t.TempDir())
	pcfg.FsyncEvery = fsyncEvery
	primary, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	tsP := httptest.NewServer(primary.Handler())
	defer tsP.Close()
	if err := primary.Hub().PushBatch("cpu", sineValues(400, 0)); err != nil {
		t.Fatal(err)
	}

	// FollowPoll an hour: if the ticker were the only trigger the
	// follower could not catch up inside this test's lifetime.
	fol, err := New(followerConfig(t.TempDir(), tsP.URL))
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

	waitRaw := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fol.Hub().Stats()["cpu"].RawPoints != want {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %d raw points, want %d (status %+v)",
					fol.Hub().Stats()["cpu"].RawPoints, want, fol.Follower().Status())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitRaw(400)

	// New appends land while the follower's manifest request is parked;
	// the bump must push them through far faster than the poll interval.
	var b strings.Builder
	for _, v := range sineValues(50, 400) {
		fmt.Fprintf(&b, "cpu=%s\n", strconv.FormatFloat(v, 'g', -1, 64))
	}
	if code, reply := post(t, tsP.URL+"/ingest", b.String()); code != 200 {
		t.Fatalf("ingest = %d %s", code, reply)
	}
	waitRaw(450)

	fcancel()
	if err := <-fdone; err != nil {
		t.Fatal(err)
	}
}

// TestFollowerFirstPollAnswersAtOnce: a new follower has seen no
// manifest, so its first long-poll must not park even when the primary's
// append version is still at its start value — a primary restarted over
// its data dir with no ingest since. Otherwise a fresh follower reports
// unsynced for a whole LongPoll.
func TestFollowerFirstPollAnswersAtOnce(t *testing.T) {
	dir := t.TempDir()
	first, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Hub().PushBatch("cpu", sineValues(400, 0)); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	primary, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	tsP := httptest.NewServer(primary.Handler())
	defer tsP.Close()

	const longPoll = 20 * time.Second // FollowPoll doubles as the long-poll hold
	fcfg := followerConfig(t.TempDir(), tsP.URL)
	fcfg.FollowPoll = longPoll
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
	start := time.Now()
	go func() { fdone <- fol.Serve(fctx, lnF) }()
	defer func() {
		fcancel()
		if err := <-fdone; err != nil {
			t.Error(err)
		}
	}()
	for !fol.Follower().Status().Synced {
		if elapsed := time.Since(start); elapsed > longPoll/4 {
			t.Fatalf("follower not synced after %s (long-poll %s): %+v", elapsed, longPoll, fol.Follower().Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := fol.Hub().Stats()["cpu"].RawPoints; got != 400 {
		t.Fatalf("follower has %d raw points, want 400", got)
	}
}
