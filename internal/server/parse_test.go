package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// ingestBody is an ingest body of points values for each of series
// series, named s0..s<series-1>, interleaved one line per series.
func ingestBody(series, points int) []byte {
	var b bytes.Buffer
	for i := 0; i < points; i++ {
		for s := 0; s < series; s++ {
			fmt.Fprintf(&b, "s%d=%v\n", s, math.Sin(2*math.Pi*float64(i+s)/40))
		}
	}
	return b.Bytes()
}

// TestIngestParseApplyAllocs pins the ingest path's allocations: parsing
// a one-series 640-point body and applying it to a warm hub costs the
// batch list, the values slice and the series name, plus at most one
// more, whatever the point count.
func TestIngestParseApplyAllocs(t *testing.T) {
	h, err := NewHub(testConfig().Hub)
	if err != nil {
		t.Fatal(err)
	}
	body := ingestBody(1, 640)
	ctx := context.Background()
	apply := func() {
		batches, err := parseIngest(body, h.DefaultSeries())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.Apply(ctx, batches); err != nil {
			t.Fatal(err)
		}
	}
	apply() // create the series and fill its window
	if allocs := testing.AllocsPerRun(50, apply); allocs > 4 {
		t.Fatalf("parse + Apply of a 640-point body: %v allocs, want <= 4", allocs)
	}
}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkIngestHandler is the bench-gate entry (BENCH_refresh.json)
// for POST /ingest through Server.Handler(): read, parse, WAL append
// (batched fsync, as the server ships) and the refresh of warm series,
// with the shipped trace sampling. Its allocs/op are the ingest path's
// garbage per request: one series × 640 points (the bulk shape) and 16
// series × 16 points (the fan-in shape).
func BenchmarkIngestHandler(bm *testing.B) {
	for _, tc := range []struct{ series, points int }{{1, 640}, {16, 16}} {
		bm.Run(fmt.Sprintf("%dx%d", tc.series, tc.points), func(b *testing.B) {
			cfg := testConfig()
			cfg.DataDir = b.TempDir()
			cfg.FsyncEvery = 100 * time.Millisecond
			cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			body := ingestBody(tc.series, tc.points)
			rb := &rewindBody{}
			req := httptest.NewRequest(http.MethodPost, "/ingest", rb)
			req.ContentLength = int64(len(body))
			w := &discardWriter{h: http.Header{}}
			serve := func() {
				rb.Reset(body)
				clear(w.h)
				w.code = http.StatusOK
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("ingest status %d", w.code)
				}
			}
			for fill := 0; fill*tc.points < cfg.Hub.Stream.WindowPoints; fill++ {
				serve()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
