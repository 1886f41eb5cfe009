package server

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/asap-go/asap"
)

// warmReadServer returns the handler of a server holding one series
// "s" whose window is full, refreshed every refresh raw points (0 =
// per aggregated point, the server's default).
func warmReadServer(tb testing.TB, window, resolution, refresh int) http.Handler {
	tb.Helper()
	s, err := New(Config{
		Hub:    HubConfig{Stream: asap.StreamConfig{WindowPoints: window, Resolution: resolution, RefreshEvery: refresh}},
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	vals := make([]float64, window)
	for i := range vals {
		vals[i] = math.Sin(2*math.Pi*float64(i)/240) + 0.1*math.Sin(float64(i))
	}
	if err := s.Hub().PushBatch("s", vals); err != nil {
		tb.Fatal(err)
	}
	f, ok := s.Hub().Frame("s")
	if !ok || f == nil {
		tb.Fatal("warm series has no frame")
	}
	f.Release()
	return s.Handler()
}

// readServe returns a function serving GET path through h into a
// reused discardWriter, failing tb on any status but 200. It serves the
// path 256 times first. Besides warming up, that takes the process-wide
// request-ID counter past 255, below which Go boxes it for fmt without
// allocating, so allocation counts do not depend on how many requests
// the process served before.
func readServe(tb testing.TB, h http.Handler, path string) func() {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("GET %s status %d", path, w.code)
		}
	}
	for i := 0; i < 256; i++ {
		serve()
	}
	return serve
}

// TestPlotHandlerAllocsFlat pins /plot.svg's allocations: rendering a
// frame at resolution 100 costs the same as at resolution 800, so no
// allocation is made per point, and the request stays under a small
// constant. One refresh per window makes both frames sequence 1, so
// the numbers in the title box alike and only the point count differs.
func TestPlotHandlerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race; make alloc-check runs this test")
	}
	measure := func(window, resolution int) float64 {
		serve := readServe(t, warmReadServer(t, window, resolution, window), "/plot.svg?series=s")
		return testing.AllocsPerRun(50, serve)
	}
	small, large := measure(400, 100), measure(14400, 800)
	t.Logf("/plot.svg allocs: resolution 100 = %v, resolution 800 = %v", small, large)
	if small != large {
		t.Errorf("/plot.svg allocs: resolution 100 = %v, resolution 800 = %v; want equal (no per-point allocation)", small, large)
	}
	if large > 64 {
		t.Errorf("/plot.svg allocs = %v, want <= 64", large)
	}
}

// BenchmarkReadHandlers is the bench-gate entry (BENCH_refresh.json)
// for the read path through Server.Handler(): GET /frame (JSON) and
// GET /plot.svg on a warm series at the server's default window 14400
// and resolution 800.
func BenchmarkReadHandlers(bm *testing.B) {
	h := warmReadServer(bm, 14400, 800, 0)
	for _, path := range []struct{ name, path string }{
		{"frame", "/frame?series=s"},
		{"plot", "/plot.svg?series=s"},
	} {
		bm.Run(path.name, func(b *testing.B) {
			serve := readServe(b, h, path.path)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
