package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// Dist is a set of latency samples.
type Dist struct {
	sorted []float64
}

func newDist(samples []float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Dist{sorted: s}
}

func (d Dist) N() int { return len(d.sorted) }

// Quantile is the nearest-rank q-quantile, NaN when empty.
func (d Dist) Quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return d.sorted[i]
}

// Supports reports whether at least minBeyond samples lie beyond the
// q-quantile, so the percentile is measured rather than extrapolated:
// p99 needs 1000 samples.
func (d Dist) Supports(q float64) bool {
	beyond := float64(len(d.sorted)) * (1 - q)
	return beyond+1e-9 >= minBeyond
}

func median(xs []float64) float64 { return newDist(xs).Quantile(0.5) }

// statWindow is the span of due times whose samples form one window
// of a Latencies.
const statWindow = time.Second

// Latencies are one metric's samples in milliseconds, kept whole for
// the printed p99 and grouped in windows of due time for the gated
// percentiles.
type Latencies struct {
	all     []float64
	windows map[int]*window
}

// window is one window's samples and the time they span, from the
// first due time to the last completion.
type window struct {
	vals     []float64
	from, to time.Time
}

// add records v, due at from and done at to, in window w; callers
// number windows so that no two phases share one.
func (l *Latencies) add(w int, from, to time.Time, v float64) {
	if l.windows == nil {
		l.windows = map[int]*window{}
	}
	l.all = append(l.all, v)
	win := l.windows[w]
	if win == nil {
		win = &window{from: from, to: to}
		l.windows[w] = win
	}
	win.vals = append(win.vals, v)
	if from.Before(win.from) {
		win.from = from
	}
	if to.After(win.to) {
		win.to = to
	}
}

// Windowed is the quiet median (see quietMedian), over windows with at
// least minBeyond samples beyond their q-quantile, of that quantile: a
// host stall that spoils one window moves one sample of the median, not
// the result. It falls back to the pooled quantile when no window is
// big enough.
func (l *Latencies) Windowed(q float64, c *stealClock) (v float64, windows int) {
	var per []Sample
	for _, w := range l.windows {
		if d := newDist(w.vals); d.Supports(q) {
			per = append(per, Sample{V: d.Quantile(q), From: w.from, To: w.to})
		}
	}
	if len(per) == 0 {
		return newDist(l.all).Quantile(q), 0
	}
	return quietMedian(per, c)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
