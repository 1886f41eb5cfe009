package main

import (
	"fmt"
	"math"

	"github.com/asap-go/asap"
)

func streamConfig() asap.StreamConfig {
	return asap.StreamConfig{WindowPoints: windowPoints, Resolution: resolution}
}

// Reference is one asap.Streamer per series fed exactly the batches the
// server acknowledged, with the same boundaries: a batch that crosses
// several refresh deadlines coalesces them into one search, so the
// boundaries decide the frames.
type Reference struct {
	st []*asap.Streamer
}

func newReference(series int) (*Reference, error) {
	r := &Reference{st: make([]*asap.Streamer, series)}
	for i := range r.st {
		st, err := asap.NewStreamer(streamConfig())
		if err != nil {
			return nil, err
		}
		r.st[i] = st
	}
	return r, nil
}

// apply pushes one request's groups and returns, per group, the
// sequence of the frame that group produced, or 0 if it produced none.
func (r *Reference) apply(groups []Group) []int {
	seqs := make([]int, len(groups))
	for k, g := range groups {
		if f := r.st[g.Series].PushBatch(g.Values); f != nil {
			seqs[k] = f.Sequence
			f.Release()
		}
	}
	return seqs
}

// WireFrame is the JSON body of GET /frame.
type WireFrame struct {
	Values   []float64 `json:"values"`
	Window   int       `json:"window"`
	Sequence int       `json:"sequence"`
}

// frame is series i's current reference frame, nil before the first
// refresh.
func (r *Reference) frame(i int) *WireFrame {
	f := r.st[i].Frame()
	if f == nil {
		return nil
	}
	defer f.Release()
	return &WireFrame{Values: append([]float64(nil), f.Values...), Window: f.Window, Sequence: f.Sequence}
}

// restoredReference rebuilds every series the way WAL recovery and
// follower bootstrap do: Restore with the last horizon points the
// series received and its total.
func restoredReference(g *Gen) (*Reference, error) {
	r, err := newReference(len(g.values))
	if err != nil {
		return nil, err
	}
	horizon, err := horizonPoints()
	if err != nil {
		return nil, err
	}
	for s, st := range r.st {
		total := g.cursor[s]
		n := total
		if n > horizon {
			n = horizon
		}
		tail := make([]float64, n)
		vs := g.values[s]
		for i := range tail {
			tail[i] = vs[(total-n+i)%len(vs)]
		}
		st.Restore(tail, total)
	}
	return r, nil
}

func (r *Reference) rawPoints(i int) int { return r.st[i].Stats().RawPoints }

// sameFrame reports whether two frames are bit-identical in values,
// window and sequence, and if not, how they differ.
func sameFrame(want, got *WireFrame) error {
	switch {
	case want == nil && got == nil:
		return nil
	case want == nil || got == nil:
		return fmt.Errorf("frame presence differs: want %v, got %v", want != nil, got != nil)
	case want.Window != got.Window || want.Sequence != got.Sequence:
		return fmt.Errorf("window/sequence %d/%d, want %d/%d", got.Window, got.Sequence, want.Window, want.Sequence)
	case len(want.Values) != len(got.Values):
		return fmt.Errorf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if math.Float64bits(want.Values[i]) != math.Float64bits(got.Values[i]) {
			return fmt.Errorf("value %d = %v, want %v", i, got.Values[i], want.Values[i])
		}
	}
	return nil
}
