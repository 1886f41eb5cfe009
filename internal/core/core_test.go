package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/asap-go/asap/internal/sma"
	"github.com/asap-go/asap/internal/stats"
)

// noisySine builds the kind of periodic-with-anomaly series ASAP targets.
func noisySine(n, period int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2*math.Pi*float64(i)/float64(period)) + noise*rng.NormFloat64()
	}
	return xs
}

// anomalousSine is the Section 4.3.2 example: a sine whose peak in one
// region is taller than usual.
func anomalousSine(n, period int, from, to int, boost, noise float64, seed int64) []float64 {
	xs := noisySine(n, period, noise, seed)
	for i := from; i < to && i < n; i++ {
		xs[i] += boost
	}
	return xs
}

func TestEvaluateMatchesNaive(t *testing.T) {
	xs := noisySine(500, 25, 0.5, 1)
	for _, w := range []int{1, 2, 7, 25, 50, 499, 500} {
		got, err := Evaluate(xs, w)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		sm, err := sma.Transform(xs, w)
		if err != nil {
			t.Fatal(err)
		}
		wantRough := stats.Roughness(sm)
		wantKurt := stats.Kurtosis(sm)
		if math.Abs(got.Roughness-wantRough) > 1e-9*(1+wantRough) {
			t.Errorf("w=%d roughness: fused %v, naive %v", w, got.Roughness, wantRough)
		}
		if math.Abs(got.Kurtosis-wantKurt) > 1e-9*(1+wantKurt) {
			t.Errorf("w=%d kurtosis: fused %v, naive %v", w, got.Kurtosis, wantKurt)
		}
	}
}

func TestEvaluateProperty(t *testing.T) {
	prop := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
		}
		w := int(wRaw)%len(xs) + 1
		got, err := Evaluate(xs, w)
		if err != nil {
			return false
		}
		sm, err := sma.Transform(xs, w)
		if err != nil {
			return false
		}
		return math.Abs(got.Roughness-stats.Roughness(sm)) < 1e-8 &&
			math.Abs(got.Kurtosis-stats.Kurtosis(sm)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestVarianceAccMatchesMoments: Evaluate's Mean+M2 accumulator must
// give the standard deviation stats.Moments gives, bit for bit, or every
// roughness (and so every chosen window) could drift from the
// reference search.
func TestVarianceAccMatchesMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series := map[string][]float64{
		"empty": nil,
		"one":   {3.5},
	}
	gen := func(name string, n int, f func(i int) float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		series[name] = xs
	}
	gen("random", 2000, func(int) float64 { return rng.NormFloat64() * 5 })
	gen("constant", 500, func(int) float64 { return 0.1 })
	gen("huge-offset", 2000, func(int) float64 { return 1e12 + rng.Float64() })
	gen("alternating-sign", 2000, func(i int) float64 { return float64(1-2*(i%2)) * (1 + 1e-9*float64(i)) })
	gen("heavy-tail", 2000, func(int) float64 { return math.Exp(8 * rng.NormFloat64()) })
	gen("tiny", 500, func(int) float64 { return 1e-300 * rng.NormFloat64() })
	for name, xs := range series {
		var acc varianceAcc
		var ref stats.Moments
		for i, x := range xs {
			acc.add(x)
			ref.Add(x)
			if got, want := acc.stdDev(), ref.StdDev(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: after %d values stdDev %v, Moments %v", name, i+1, got, want)
			}
		}
		if acc.mean != ref.Mean || acc.m2 != ref.M2 {
			t.Errorf("%s: mean/m2 %v/%v, Moments %v/%v", name, acc.mean, acc.m2, ref.Mean, ref.M2)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	xs := []float64{1, 2, 3}
	if _, err := Evaluate(xs, 0); err == nil {
		t.Error("window 0 should error")
	}
	if _, err := Evaluate(xs, 4); err == nil {
		t.Error("window beyond length should error")
	}
}

func TestIIDRoughnessClosedForm(t *testing.T) {
	// Equation 2: for IID data, roughness(SMA(X,w)) ~ sqrt(2)*sigma/w.
	rng := rand.New(rand.NewSource(21))
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	sigma := stats.StdDev(xs)
	for _, w := range []int{2, 5, 10, 40} {
		m, err := Evaluate(xs, w)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Sqrt2 * sigma / float64(w)
		if math.Abs(m.Roughness-want)/want > 0.05 {
			t.Errorf("w=%d: roughness %v, closed form %v", w, m.Roughness, want)
		}
	}
}

func TestIIDKurtosisClosedForm(t *testing.T) {
	// Equation 4: Kurt[Y]-3 = (Kurt[X]-3)/w for IID X. A uniform series
	// (kurtosis 1.8 < 3) must see kurtosis increase toward 3 with w, and a
	// Laplace series (kurtosis 6 > 3) must see it decrease toward 3.
	rng := rand.New(rand.NewSource(22))
	n := 400000
	uniform := make([]float64, n)
	laplace := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64()
		u := rng.Float64() - 0.5
		laplace[i] = -math.Copysign(math.Log(1-2*math.Abs(u)), u)
	}
	for _, w := range []int{2, 4, 8} {
		mu, err := Evaluate(uniform, w)
		if err != nil {
			t.Fatal(err)
		}
		wantU := 3 + (1.8-3)/float64(w)
		if math.Abs(mu.Kurtosis-wantU) > 0.1 {
			t.Errorf("uniform w=%d: kurtosis %v, closed form %v", w, mu.Kurtosis, wantU)
		}
		ml, err := Evaluate(laplace, w)
		if err != nil {
			t.Fatal(err)
		}
		wantL := 3 + (6.0-3)/float64(w)
		if math.Abs(ml.Kurtosis-wantL) > 0.2 {
			t.Errorf("laplace w=%d: kurtosis %v, closed form %v", w, ml.Kurtosis, wantL)
		}
	}
}

func TestASAPMatchesExhaustiveOnPeriodicData(t *testing.T) {
	// The Table 2 headline: ASAP finds the same window as exhaustive search
	// while evaluating far fewer candidates. Period-aligned windows are not
	// always the unique argmin on noisy data, so we accept windows whose
	// achieved roughness matches the exhaustive optimum within 2%, but we
	// require exact window agreement for the clean anomalous sine (the
	// paper's own worked example).
	cases := []struct {
		name  string
		xs    []float64
		exact bool
	}{
		{"anomalous-sine", anomalousSine(800, 32, 320, 336, 1.5, 0.12, 3), true},
		{"noisy-sine-p50", noisySine(2000, 50, 0.4, 4), false},
		{"two-period", func() []float64 {
			xs := noisySine(3000, 30, 0.3, 5)
			for i := range xs {
				xs[i] += 0.5 * math.Sin(2*math.Pi*float64(i)/300)
			}
			return xs
		}(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ex, err := Search(StrategyExhaustive, c.xs, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			as, err := Search(StrategyASAP, c.xs, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if c.exact && as.Window != ex.Window {
				t.Errorf("ASAP window %d != exhaustive %d", as.Window, ex.Window)
			}
			if ex.Roughness > 0 && as.Roughness > ex.Roughness*1.02 {
				t.Errorf("ASAP roughness %v worse than exhaustive %v", as.Roughness, ex.Roughness)
			}
			if as.Candidates >= ex.Candidates {
				t.Errorf("ASAP evaluated %d candidates, exhaustive %d — no pruning happened",
					as.Candidates, ex.Candidates)
			}
			if as.Kurtosis < as.OriginalKurtosis {
				t.Errorf("ASAP violated kurtosis constraint: %v < %v", as.Kurtosis, as.OriginalKurtosis)
			}
		})
	}
}

func TestSpikySeriesLeftUnsmoothed(t *testing.T) {
	// Twitter-AAPL behaviour (Table 2, Figure C.1): a series that is smooth
	// except for a few extreme spikes has very high kurtosis; any SMA
	// averages the spikes away, so both exhaustive and ASAP must return
	// window 1.
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 10 + 0.05*rng.NormFloat64()
	}
	xs[700] = 400 // isolated news spike: any averaging dilutes it
	for _, strat := range []Strategy{StrategyExhaustive, StrategyASAP} {
		res, err := Search(strat, xs, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Window != 1 {
			t.Errorf("%v chose window %d for spiky series, want 1 (unsmoothed)", strat, res.Window)
		}
	}
}

func TestKurtosisConstraintBinds(t *testing.T) {
	// For every strategy, the returned window must satisfy the constraint.
	xs := anomalousSine(1200, 40, 500, 520, 2.0, 0.3, 9)
	for _, strat := range []Strategy{StrategyASAP, StrategyExhaustive, StrategyGrid2, StrategyGrid10, StrategyBinary} {
		res, err := Search(strat, xs, SearchOptions{})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Kurtosis < res.OriginalKurtosis-1e-9 {
			t.Errorf("%v: kurtosis %v < original %v", strat, res.Kurtosis, res.OriginalKurtosis)
		}
		if res.Window < 1 || res.Window > res.MaxWindow {
			t.Errorf("%v: window %d outside [1, %d]", strat, res.Window, res.MaxWindow)
		}
	}
}

func TestExhaustiveIsOptimal(t *testing.T) {
	// Exhaustive search must achieve the minimum roughness over all
	// feasible windows; verify against a direct scan.
	xs := noisySine(600, 24, 0.5, 10)
	res, err := Search(StrategyExhaustive, xs, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	origKurt := stats.Kurtosis(xs)
	best, bestW := stats.Roughness(xs), 1
	for w := 2; w <= res.MaxWindow; w++ {
		m, err := Evaluate(xs, w)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kurtosis >= origKurt && m.Roughness < best {
			best, bestW = m.Roughness, w
		}
	}
	if res.Window != bestW {
		t.Errorf("exhaustive window %d, direct scan %d", res.Window, bestW)
	}
	if math.Abs(res.Roughness-best) > 1e-12 {
		t.Errorf("exhaustive roughness %v, direct scan %v", res.Roughness, best)
	}
}

func TestGridCoarserIsNoBetter(t *testing.T) {
	xs := noisySine(1500, 60, 0.4, 11)
	ex, _ := Search(StrategyExhaustive, xs, SearchOptions{})
	g2, _ := Search(StrategyGrid2, xs, SearchOptions{})
	g10, _ := Search(StrategyGrid10, xs, SearchOptions{})
	if g2.Roughness < ex.Roughness-1e-12 {
		t.Errorf("grid2 beat exhaustive: %v < %v", g2.Roughness, ex.Roughness)
	}
	if g10.Roughness < ex.Roughness-1e-12 {
		t.Errorf("grid10 beat exhaustive: %v < %v", g10.Roughness, ex.Roughness)
	}
	if g2.Candidates >= ex.Candidates || g10.Candidates >= g2.Candidates {
		t.Errorf("candidate counts not decreasing: ex=%d g2=%d g10=%d",
			ex.Candidates, g2.Candidates, g10.Candidates)
	}
}

func TestBinarySearchOnIID(t *testing.T) {
	// Section 4.2: for IID data binary search is accurate. With uniform
	// noise (kurtosis < 3) every window is feasible, so binary search must
	// drive to (near) the maximum window.
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	res, err := Search(StrategyBinary, xs, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Window < res.MaxWindow-1 {
		t.Errorf("binary window %d, want close to max %d for uniform IID", res.Window, res.MaxWindow)
	}
	if res.Candidates > 20 {
		t.Errorf("binary search evaluated %d candidates, want O(log n)", res.Candidates)
	}
}

func TestSeedWindowSpeedsSearch(t *testing.T) {
	xs := noisySine(4000, 100, 0.3, 13)
	plain, err := Search(StrategyASAP, xs, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := Search(StrategyASAP, xs, SearchOptions{SeedWindow: plain.Window})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Window != plain.Window {
		t.Errorf("seeded window %d != plain %d", seeded.Window, plain.Window)
	}
	if seeded.Candidates > plain.Candidates+1 {
		t.Errorf("seeding increased candidates: %d > %d", seeded.Candidates, plain.Candidates)
	}
}

func TestSeedWindowInfeasibleIgnored(t *testing.T) {
	// A seed that violates the kurtosis constraint must not pollute the
	// result.
	rng := rand.New(rand.NewSource(14))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 10 + 0.05*rng.NormFloat64()
	}
	xs[900] = 500 // single extreme outlier: smoothing infeasible
	res, err := Search(StrategyASAP, xs, SearchOptions{SeedWindow: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Window != 1 {
		t.Errorf("infeasible seed produced window %d, want 1", res.Window)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(StrategyASAP, []float64{1, 2, 3}, SearchOptions{}); err == nil {
		t.Error("3-point series should error")
	}
	if _, err := Search(Strategy(99), noisySine(100, 10, 0.1, 1), SearchOptions{}); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestMaxWindowOverride(t *testing.T) {
	xs := noisySine(1000, 40, 0.3, 15)
	res, err := Search(StrategyExhaustive, xs, SearchOptions{MaxWindow: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWindow != 25 {
		t.Errorf("MaxWindow = %d, want 25", res.MaxWindow)
	}
	if res.Window > 25 {
		t.Errorf("window %d exceeds explicit max 25", res.Window)
	}
	// Larger than series: clamped.
	res, err = Search(StrategyExhaustive, xs, SearchOptions{MaxWindow: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWindow >= len(xs) {
		t.Errorf("MaxWindow %d not clamped below n=%d", res.MaxWindow, len(xs))
	}
}

func TestSmoothEndToEnd(t *testing.T) {
	// 36,000-point daily-periodic series at 1200 px: ratio 30, aggregated
	// length 1200, and the smoothed output must be close to the target
	// resolution and smoother than the input.
	xs := noisySine(36000, 1440, 0.5, 16)
	res, err := Smooth(xs, SmoothOptions{Resolution: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != 30 {
		t.Errorf("ratio = %d, want 30", res.Ratio)
	}
	if len(res.Aggregated) != 1200 {
		t.Errorf("aggregated length = %d, want 1200", len(res.Aggregated))
	}
	if got := len(res.Smoothed); got != len(res.Aggregated)-res.Window+1 {
		t.Errorf("smoothed length = %d, want %d", got, len(res.Aggregated)-res.Window+1)
	}
	if res.Roughness >= res.OriginalRoughness {
		t.Errorf("smoothing did not reduce roughness: %v >= %v", res.Roughness, res.OriginalRoughness)
	}
}

func TestSmoothNoPreaggWhenSmall(t *testing.T) {
	xs := noisySine(900, 30, 0.3, 17)
	res, err := Smooth(xs, SmoothOptions{Resolution: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != 1 {
		t.Errorf("ratio = %d, want 1 (series < 2x resolution)", res.Ratio)
	}
	if len(res.Aggregated) != len(xs) {
		t.Errorf("aggregated length changed: %d", len(res.Aggregated))
	}
}

func TestSmoothZeroResolution(t *testing.T) {
	xs := noisySine(500, 25, 0.3, 18)
	res, err := Smooth(xs, SmoothOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != 1 {
		t.Errorf("ratio = %d, want 1 with resolution 0", res.Ratio)
	}
}

func TestSmoothErrors(t *testing.T) {
	if _, err := Smooth(nil, SmoothOptions{}); err == nil {
		t.Error("empty input should error")
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		StrategyASAP: "ASAP", StrategyExhaustive: "Exhaustive",
		StrategyGrid2: "Grid2", StrategyGrid10: "Grid10", StrategyBinary: "Binary",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("String() = %q, want %q", s.String(), name)
		}
	}
	if Strategy(42).String() != "Strategy(42)" {
		t.Errorf("unknown strategy String() = %q", Strategy(42).String())
	}
}

func TestConstantSeriesSearch(t *testing.T) {
	// A constant series has zero roughness and zero kurtosis everywhere;
	// every strategy should terminate and return a valid window.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 5
	}
	for _, strat := range []Strategy{StrategyASAP, StrategyExhaustive, StrategyBinary} {
		res, err := Search(strat, xs, SearchOptions{})
		if err != nil {
			t.Fatalf("%v on constant series: %v", strat, err)
		}
		if res.Window < 1 {
			t.Errorf("%v window = %d", strat, res.Window)
		}
	}
}

func BenchmarkSearchASAP(b *testing.B) {
	xs := noisySine(1200, 48, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(StrategyASAP, xs, SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchExhaustive(b *testing.B) {
	xs := noisySine(1200, 48, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(StrategyExhaustive, xs, SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	xs := noisySine(1200, 48, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(xs, 64); err != nil {
			b.Fatal(err)
		}
	}
}
