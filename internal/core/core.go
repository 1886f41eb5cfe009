// Package core implements ASAP's smoothing-parameter search — the paper's
// primary contribution (Sections 3 and 4).
//
// The problem (Section 3.4): given series X, find the SMA window w that
// minimizes roughness(SMA(X,w)) subject to Kurt[SMA(X,w)] >= Kurt[X].
//
// The package provides the optimized ASAP search (Algorithm 2:
// autocorrelation-peak candidates with the Algorithm 1 pruning rules, then
// a binary-search refinement over the remaining range) alongside the
// comparison strategies evaluated in Section 5: exhaustive search, grid
// search with configurable step, and plain binary search. All strategies
// share one fused candidate evaluator and report how many candidate
// windows they actually smoothed, which is the bookkeeping behind Table 2.
//
// Where the paper's pseudocode and the authors' released implementation
// diverge, this package follows the implementation: feasible candidates
// update the pruning lower bound even when they do not improve the
// incumbent roughness, which prunes strictly more of the space and is what
// the reported candidate counts reflect.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/asap-go/asap/internal/acf"
	"github.com/asap-go/asap/internal/preagg"
	"github.com/asap-go/asap/internal/stats"
)

// ErrInput reports an unusable input series.
var ErrInput = errors.New("core: invalid input")

// DefaultMaxWindowFraction bounds the window search at this fraction of the
// (preaggregated) series length, matching the paper's prototypes. Users can
// override via SearchOptions.MaxWindow.
const DefaultMaxWindowFraction = 0.10

// Strategy selects a window-search algorithm.
type Strategy int

// Available search strategies (Table 3 of the paper).
const (
	// StrategyASAP is Algorithm 2: ACF-peak search plus binary refinement.
	StrategyASAP Strategy = iota
	// StrategyExhaustive tries every window 2..MaxWindow.
	StrategyExhaustive
	// StrategyGrid2 tries every second window.
	StrategyGrid2
	// StrategyGrid10 tries every tenth window.
	StrategyGrid10
	// StrategyBinary bisects on the kurtosis constraint (Section 4.2).
	StrategyBinary
)

// String returns the name used in benchmark output.
func (s Strategy) String() string {
	switch s {
	case StrategyASAP:
		return "ASAP"
	case StrategyExhaustive:
		return "Exhaustive"
	case StrategyGrid2:
		return "Grid2"
	case StrategyGrid10:
		return "Grid10"
	case StrategyBinary:
		return "Binary"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// SearchOptions configures a window search over an already-preaggregated
// series. The zero value picks the paper's defaults.
type SearchOptions struct {
	// MaxWindow bounds candidate windows. 0 means
	// max(2, n*DefaultMaxWindowFraction).
	MaxWindow int
	// SeedWindow, when >1, is a previously chosen window that the search
	// verifies first (streaming ASAP's CheckLastWindow, Algorithm 3). A
	// feasible seed activates the roughness and lower-bound pruning from
	// the start of the search.
	SeedWindow int
	// ACF, when non-nil, is a precomputed autocorrelation for the series
	// (streaming mode maintains one incrementally). When nil, ASAP
	// computes it; other strategies never need it.
	ACF *acf.Result
}

// Result describes the outcome of a window search.
type Result struct {
	// Window is the chosen SMA window (1 = leave the series unsmoothed).
	Window int
	// Roughness is sigma(diff(SMA(X, Window))).
	Roughness float64
	// Kurtosis of the smoothed series.
	Kurtosis float64
	// OriginalRoughness and OriginalKurtosis describe the input.
	OriginalRoughness float64
	OriginalKurtosis  float64
	// Candidates is the number of windows for which the series was
	// actually smoothed and measured (the cost metric of Table 2).
	Candidates int
	// MaxWindow is the bound the search used.
	MaxWindow int
}

// Metrics holds the two quality measures of a smoothed candidate.
type Metrics struct {
	Roughness float64
	Kurtosis  float64
}

// Evaluate computes roughness and kurtosis of SMA(xs, w) in a single
// streaming pass without materializing the smoothed series. It is the
// shared inner loop of every search strategy. w must be in [1, len(xs)].
func Evaluate(xs []float64, w int) (Metrics, error) {
	n := len(xs)
	if w < 1 || w > n {
		return Metrics{}, fmt.Errorf("%w: window %d for %d points", ErrInput, w, n)
	}
	var valMoments stats.Moments
	var diffMoments varianceAcc
	inv := 1 / float64(w)
	var sum float64
	for i := 0; i < w; i++ {
		sum += xs[i]
	}
	prev := sum * inv
	valMoments.Add(prev)
	// Rolling update: y_{i+1} - y_i = (x_{i+w} - x_i)/w, so the rolling sum
	// update is exact in the same arithmetic as the difference series.
	for i := 1; i+w <= n; i++ {
		sum += xs[i+w-1] - xs[i-1]
		y := sum * inv
		valMoments.Add(y)
		diffMoments.add(y - prev)
		prev = y
	}
	return Metrics{
		Roughness: diffMoments.stdDev(),
		Kurtosis:  valMoments.Kurtosis(),
	}, nil
}

// varianceAcc is stats.Moments cut down to Mean and M2, which is all
// Roughness (a standard deviation) reads: the difference series never
// needs M3 or M4. Its update is Moments.Add's, expression for
// expression, so stdDev equals Moments.StdDev bit for bit. Keep the
// shapes identical rather than merely equivalent: on arm64 the compiler
// fuses "m2 += delta*deltaN*n1" into one multiply-add in both, and an
// explicit float64(...) rounding here would stop that fusion on one side
// only.
type varianceAcc struct {
	n        int
	mean, m2 float64
}

func (a *varianceAcc) add(x float64) {
	n1 := float64(a.n)
	a.n++
	n := float64(a.n)
	delta := x - a.mean
	deltaN := delta / n
	term1 := delta * deltaN * n1
	a.mean += deltaN
	a.m2 += term1
}

// stdDev is Moments.StdDev: the population standard deviation, 0 for
// fewer than two observations.
func (a varianceAcc) stdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// defaultMaxWindow returns the search bound for an n-point series.
func defaultMaxWindow(n int) int {
	mw := int(float64(n) * DefaultMaxWindowFraction)
	if mw < 2 {
		mw = 2
	}
	if mw >= n {
		mw = n - 1
	}
	return mw
}

// searchState carries the incumbent solution plus pruning state through
// Algorithms 1 and 2.
type searchState struct {
	window        int
	minRoughness  float64
	origRoughness float64 // roughness of the unsmoothed series, computed once
	origKurtosis  float64
	lb            int
	candidates    int
}

// feasible records a candidate evaluation, updating the incumbent when it
// improves roughness while preserving kurtosis. It reports whether the
// kurtosis constraint held.
func (s *searchState) observe(w int, m Metrics) bool {
	s.candidates++
	if m.Kurtosis >= s.origKurtosis {
		if m.Roughness < s.minRoughness {
			s.minRoughness = m.Roughness
			s.window = w
		}
		return true
	}
	return false
}

// Search runs the requested strategy over xs (assumed already
// preaggregated if desired) and returns the chosen window and metrics.
func Search(strategy Strategy, xs []float64, opts SearchOptions) (*Result, error) {
	res := new(Result)
	if err := SearchInto(res, strategy, xs, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// SearchInto is Search writing into a caller-owned Result, the entry point
// for refresh paths that must not allocate at steady state: every piece of
// search state lives on the stack or in res. On error res is left
// unspecified.
func SearchInto(res *Result, strategy Strategy, xs []float64, opts SearchOptions) error {
	n := len(xs)
	if n < 4 {
		return fmt.Errorf("%w: need at least 4 points, have %d", ErrInput, n)
	}
	maxWindow := opts.MaxWindow
	if maxWindow <= 0 {
		maxWindow = defaultMaxWindow(n)
	}
	if maxWindow >= n {
		maxWindow = n - 1
	}
	if maxWindow < 2 {
		maxWindow = 2
	}

	origMoments := stats.ComputeMoments(xs)
	origRoughness := stats.Roughness(xs)
	st := searchState{
		window:        1,
		minRoughness:  origRoughness,
		origRoughness: origRoughness,
		origKurtosis:  origMoments.Kurtosis(),
		lb:            1,
	}

	var err error
	switch strategy {
	case StrategyASAP:
		err = searchASAP(xs, maxWindow, opts, &st)
	case StrategyExhaustive:
		err = searchGrid(xs, maxWindow, 1, &st)
	case StrategyGrid2:
		err = searchGrid(xs, maxWindow, 2, &st)
	case StrategyGrid10:
		err = searchGrid(xs, maxWindow, 10, &st)
	case StrategyBinary:
		err = searchBinary(xs, 2, maxWindow, &st)
	default:
		err = fmt.Errorf("%w: unknown strategy %d", ErrInput, int(strategy))
	}
	if err != nil {
		return err
	}

	final, err := Evaluate(xs, st.window)
	if err != nil {
		return err
	}
	*res = Result{
		Window:            st.window,
		Roughness:         final.Roughness,
		Kurtosis:          final.Kurtosis,
		OriginalRoughness: st.origRoughness,
		OriginalKurtosis:  st.origKurtosis,
		Candidates:        st.candidates,
		MaxWindow:         maxWindow,
	}
	return nil
}

// searchGrid evaluates windows 2, 2+step, ... <= maxWindow (step 1 is
// exhaustive search). The roughness metric is not monotonic in window
// length (Section 4.1), so the grid keeps the best feasible candidate seen
// anywhere rather than stopping early.
func searchGrid(xs []float64, maxWindow, step int, st *searchState) error {
	for w := 2; w <= maxWindow; w += step {
		m, err := Evaluate(xs, w)
		if err != nil {
			return err
		}
		st.observe(w, m)
	}
	return nil
}

// searchBinary bisects [head, tail] on the kurtosis constraint, per the IID
// analysis of Section 4.2: when the constraint holds the search moves to
// larger windows (roughness decreases with window length under IID), and
// when it fails the search moves to smaller windows.
func searchBinary(xs []float64, head, tail int, st *searchState) error {
	for head <= tail {
		w := (head + tail) / 2
		if w < 1 {
			break
		}
		m, err := Evaluate(xs, w)
		if err != nil {
			return err
		}
		if st.observe(w, m) {
			head = w + 1
		} else {
			tail = w - 1
		}
	}
	return nil
}

// searchASAP is Algorithm 2 (FindWindow): evaluate ACF peaks from large to
// small with Algorithm 1's pruning, then refine with binary search over the
// surviving range.
func searchASAP(xs []float64, maxWindow int, opts SearchOptions, st *searchState) error {
	n := len(xs)
	acfRes := opts.ACF
	if acfRes == nil {
		var err error
		// Compute two lags past the search bound: a peak at exactly
		// maxWindow (a common case — the dominant period often sets the
		// bound) needs a right neighbor to be detectable as a local max.
		acfRes, err = acf.Compute(xs, minInt(n-1, maxWindow+2))
		if err != nil {
			return err
		}
	}
	corr := acfRes.Correlations

	// Streaming seed (CheckLastWindow): verify the previous window first.
	// A feasible seed becomes the incumbent, enabling both pruning rules
	// for the whole search.
	if opts.SeedWindow > 1 && opts.SeedWindow <= maxWindow {
		m, err := Evaluate(xs, opts.SeedWindow)
		if err != nil {
			return err
		}
		if st.observe(opts.SeedWindow, m) {
			st.lb = maxInt(st.lb, lowerBound(opts.SeedWindow, acfRes.MaxACF, acfAt(corr, opts.SeedWindow)))
		}
	}

	peaks := acfRes.Peaks
	largestFeasible := -1
	tail := maxWindow
	for i := len(peaks) - 1; i >= 0; i-- {
		w := peaks[i]
		if w > maxWindow {
			continue
		}
		if w < st.lb || w == 1 {
			break // peaks are sorted ascending; everything left is smaller
		}
		// Roughness pruning (IsRougher): skip candidates whose Equation 5
		// estimate cannot beat the incumbent.
		if isRougher(corr, st.window, w) {
			continue
		}
		m, err := Evaluate(xs, w)
		if err != nil {
			return err
		}
		if st.observe(w, m) {
			st.lb = maxInt(st.lb, lowerBound(w, acfRes.MaxACF, acfAt(corr, w)))
			if largestFeasible < 0 {
				largestFeasible = i
			}
		}
	}

	// Refinement range: between the pruning lower bound and the first peak
	// above the largest feasible one (windows beyond it were infeasible at
	// their period-aligned positions, and per Section 4.3.2 off-period
	// windows near an infeasible peak rarely satisfy the constraint).
	head := st.lb
	if largestFeasible >= 0 {
		if largestFeasible < len(peaks)-1 {
			tail = minInt(tail, peaks[largestFeasible+1])
		}
		head = maxInt(head, peaks[largestFeasible]+1)
	}
	return searchBinary(xs, maxInt(2, head), minInt(tail, n-1), st)
}

// isRougher reports whether candidate w's estimated roughness exceeds the
// incumbent's, using the ACF-based estimate of Equation 5 (the common
// sqrt(2)*sigma factor cancels; the N/(N-w) correction is dropped exactly
// as in Algorithm 1's ISROUGHER).
func isRougher(corr []float64, incumbent, w int) bool {
	if incumbent <= 1 {
		return false // no incumbent estimate to compare against
	}
	return clampSqrt(1-acfAt(corr, w))*float64(incumbent) >
		clampSqrt(1-acfAt(corr, incumbent))*float64(w)
}

// lowerBound is UpdateLB / Equation 6: the smallest window that could beat
// a feasible window w with autocorrelation a, given the global maximum
// peak correlation maxACF.
func lowerBound(w int, maxACF, a float64) int {
	denom := 1 - a
	if denom <= 0 {
		// Perfectly correlated candidate: nothing smaller can be smoother.
		return w
	}
	lb := float64(w) * clampSqrt((1-maxACF)/denom)
	return int(math.Round(lb))
}

func acfAt(corr []float64, lag int) float64 {
	if lag < 0 || lag >= len(corr) {
		return 0
	}
	return corr[lag]
}

// clampSqrt returns sqrt(max(x, 0)); ACF estimates can exceed 1 by a few
// ulps, which would otherwise produce NaN.
func clampSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SmoothOptions configures the end-to-end Smooth pipeline.
type SmoothOptions struct {
	// Resolution is the target display width in pixels. When > 0 and the
	// series has at least twice as many points, the series is
	// pixel-aware preaggregated before searching (Section 4.4).
	Resolution int
	// Strategy selects the search algorithm (default StrategyASAP).
	Strategy Strategy
	// MaxWindow optionally bounds the search on the preaggregated series.
	MaxWindow int
	// SeedWindow forwards a previous result to the search (streaming).
	SeedWindow int
}

// SmoothResult is Smooth's full output: the chosen window, the smoothed
// series, and the search diagnostics.
type SmoothResult struct {
	Result
	// Smoothed is SMA(preaggregated series, Window).
	Smoothed []float64
	// Aggregated is the preaggregated series the search ran on (aliases
	// the input when no preaggregation was applied).
	Aggregated []float64
	// Ratio is the point-to-pixel ratio used (1 = no preaggregation).
	Ratio int
}

// Smooth runs the full ASAP pipeline on a raw series: pixel-aware
// preaggregation, window search with the chosen strategy, and final SMA.
func Smooth(xs []float64, opts SmoothOptions) (*SmoothResult, error) {
	if len(xs) < 4 {
		return nil, fmt.Errorf("%w: need at least 4 points, have %d", ErrInput, len(xs))
	}
	agg := xs
	ratio := 1
	if opts.Resolution > 0 && len(xs) >= 2*opts.Resolution {
		var err error
		agg, ratio, err = preagg.ForResolution(xs, opts.Resolution)
		if err != nil {
			return nil, err
		}
	}
	res, err := Search(opts.Strategy, agg, SearchOptions{
		MaxWindow:  opts.MaxWindow,
		SeedWindow: opts.SeedWindow,
	})
	if err != nil {
		return nil, err
	}
	smoothed, err := smaTransform(agg, res.Window)
	if err != nil {
		return nil, err
	}
	return &SmoothResult{
		Result:     *res,
		Smoothed:   smoothed,
		Aggregated: agg,
		Ratio:      ratio,
	}, nil
}

// smaTransform materializes SMA(xs, w) with slide 1. Kept local to avoid an
// import cycle with heavier helpers; mirrors sma.Transform.
func smaTransform(xs []float64, w int) ([]float64, error) {
	n := len(xs)
	if w < 1 || w > n {
		return nil, fmt.Errorf("%w: window %d for %d points", ErrInput, w, n)
	}
	out := make([]float64, n-w+1)
	inv := 1 / float64(w)
	var sum float64
	for i := 0; i < w; i++ {
		sum += xs[i]
	}
	out[0] = sum * inv
	for i := 1; i < len(out); i++ {
		sum += xs[i+w-1] - xs[i-1]
		out[i] = sum * inv
	}
	return out, nil
}
