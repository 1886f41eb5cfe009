package plot

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/asap-go/asap/internal/baselines"
	"github.com/asap-go/asap/internal/stats"
)

// refSVG is the fmt-based renderer SVG replaced, kept verbatim (bar its
// name) as the reference the one-buffer writer must equal byte for byte.
func refSVG(title string, width, height int, lines ...Line) (string, error) {
	if width < 50 || height < 50 {
		return "", fmt.Errorf("%w: %dx%d canvas too small", ErrInput, width, height)
	}
	if len(lines) == 0 {
		return "", fmt.Errorf("%w: no lines", ErrInput)
	}
	// Shared viewport across all lines.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, l := range lines {
		if len(l.Points) == 0 {
			return "", fmt.Errorf("%w: line %q has no points", ErrInput, l.Name)
		}
		for _, p := range l.Points {
			xmin, xmax = math.Min(xmin, p.X), math.Max(xmax, p.X)
			ymin, ymax = math.Min(ymin, p.Y), math.Max(ymax, p.Y)
		}
	}
	if xmax == xmin {
		xmin, xmax = xmin-0.5, xmax+0.5
	}
	if ymax == ymin {
		ymin, ymax = ymin-0.5, ymax+0.5
	}

	const margin = 40.0
	plotW := float64(width) - 2*margin
	plotH := float64(height) - 2*margin
	tx := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*plotW }
	ty := func(y float64) float64 { return margin + (1-(y-ymin)/(ymax-ymin))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="16">%s</text>`+"\n",
		int(margin), escapeXML(title))
	// Axes.
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n",
		margin, margin+plotH, margin+plotW, margin+plotH)
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n",
		margin, margin, margin, margin+plotH)
	fmt.Fprintf(&b, `<text x="4" y="%.1f" font-family="sans-serif" font-size="10">%.3g</text>`+"\n", margin+6, ymax)
	fmt.Fprintf(&b, `<text x="4" y="%.1f" font-family="sans-serif" font-size="10">%.3g</text>`+"\n", margin+plotH, ymin)

	for i, l := range lines {
		color := l.Color
		if color == "" {
			color = palette[i%len(palette)]
		}
		var path strings.Builder
		for j, p := range l.Points {
			cmd := "L"
			if j == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.2f %.2f ", cmd, tx(p.X), ty(p.Y))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.2"/>`+"\n",
			strings.TrimSpace(path.String()), color)
		// Legend entry.
		lx := margin + plotW - 140
		lyOff := margin + 14*float64(i)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
			lx, lyOff, lx+18, lyOff, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+24, lyOff+4, escapeXML(l.Name))
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// checkFixed2 fails t unless appendFixed2 equals strconv's 'f', 2 for v.
func checkFixed2(t *testing.T, v float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'f', 2, 64)
	if got := appendFixed2(nil, v); string(got) != string(want) {
		t.Fatalf("appendFixed2(%v) [bits %#016x] = %q, want %q", v, math.Float64bits(v), got, want)
	}
}

func TestAppendFixed2Table(t *testing.T) {
	two46 := math.Ldexp(1, 46)
	cases := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 12345, 2.2250738585072009e-308, // subnormals
		2.2250738585072014e-308, // smallest normal
		0.125, 2.675, 1.005, 0.005, 0.015, 0.025, 0.035, -0.125, -2.675, -1.005,
		0.0049999999999999999, 0.0050000000000000001, 0.995, 9.995, 99.995,
		1, -1, 0.1, 0.01, 0.001, -0.001, -0.004, -0.005, -0.006, 0.5, 1.5,
		40, 840, 280, 123.456, 839.9999999, 40.000000001,
		math.Nextafter(two46, 0), -math.Nextafter(two46, 0), two46, -two46,
		math.Nextafter(two46, math.Inf(1)), 1e15, 1e300, -1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	// Exact binary ties of the hundredths: (k+0.5)/100 whenever that
	// quotient is representable, and its neighbours either side.
	for k := 0; k < 2000; k++ {
		v := (float64(k) + 0.5) / 100
		cases = append(cases, v, -v, math.Nextafter(v, 0), math.Nextafter(v, 1e9))
	}
	for _, v := range cases {
		checkFixed2(t, v)
	}
}

// TestAppendFixed2Random checks 2^20 inputs: raw bit patterns (any
// exponent, NaN payloads included) and values in and around a canvas's
// pixel range, where ties and near-ties are dense.
func TestAppendFixed2Random(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 1<<20; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1:
			v = rng.Float64()*1200 - 100
		case 2:
			v = float64(rng.Intn(120000)-10000)/100 + float64(rng.Intn(3)-1)*1e-13
		default:
			v = math.Ldexp(rng.Float64(), rng.Intn(120)-70)
			if rng.Intn(2) == 0 {
				v = -v
			}
		}
		checkFixed2(t, v)
	}
}

func FuzzAppendFixed2(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 0.125, 2.675, 1.005, -0.001,
		123.455, math.Ldexp(1, 46), math.Nextafter(math.Ldexp(1, 46), 0), 1e300, math.NaN(), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed2(t, math.Float64frombits(bits))
	})
}

// TestSVGMatchesReference renders random documents with both the
// one-buffer SVG and the fmt-based reference and requires equal bytes.
func TestSVGMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gauss := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * scale
		}
		return xs
	}
	lengths := []int{1, 2, 3, 100, 800, 1200}
	titles := []string{"plain", `a <b> & "c"`, "cpu.load — frame #12 (window 320)", ""}
	docs := 0
	check := func(title string, width, height int, lines ...Line) {
		t.Helper()
		docs++
		want, werr := refSVG(title, width, height, lines...)
		got, gerr := SVG(title, width, height, lines...)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("doc %d (%q %dx%d, %d lines): SVG differs from reference\ngot  err=%v %.300q\nwant err=%v %.300q",
				docs, title, width, height, len(lines), gerr, got, werr, want)
		}
	}
	for round := 0; round < 40; round++ {
		n := lengths[rng.Intn(len(lengths))]
		title := titles[rng.Intn(len(titles))]
		w, h := 50+rng.Intn(1200), 50+rng.Intn(500)
		for e := -10; e <= 10; e++ {
			check(title, w, h, Line{Name: "gauss", Points: baselines.PointsFromSeries(gauss(n, math.Pow(10, float64(e))))})
		}
		ints := gauss(n, 1000)
		for i := range ints {
			ints[i] = math.Round(ints[i])
		}
		check(title, w, h, Line{Name: "ints", Points: baselines.PointsFromSeries(ints)})
		check(title, w, h, Line{Name: "z", Points: baselines.PointsFromSeries(stats.ZScores(gauss(n, 3)))})
		constant := make([]float64, n)
		for i := range constant {
			constant[i] = 7.25
		}
		check(title, w, h, Line{Name: "flat", Points: baselines.PointsFromSeries(constant)})
		// Several lines, custom colors, names to escape and scattered x.
		var lines []Line
		for k := 0; k < 1+rng.Intn(7); k++ {
			pts := make([]baselines.Point, 1+rng.Intn(300))
			for i := range pts {
				pts[i] = baselines.Point{X: rng.Float64() * 50, Y: rng.NormFloat64()}
			}
			l := Line{Name: fmt.Sprintf("s<%d>&\"", k), Points: pts}
			if k%2 == 1 {
				l.Color = "#abcdef"
			}
			lines = append(lines, l)
		}
		check(title, w, h, lines...)
	}
	// Coordinates off the fast path: NaN and ±Inf values, and a canvas
	// wide enough to push x past 2^46.
	check("nan", 400, 200, Line{Name: "nan", Points: baselines.PointsFromSeries([]float64{1, math.NaN(), 2})})
	check("inf", 400, 200, Line{Name: "inf", Points: baselines.PointsFromSeries([]float64{1, math.Inf(1), 2})})
	check("-inf", 400, 200, Line{Name: "-inf", Points: baselines.PointsFromSeries([]float64{math.Inf(-1), 0})})
	check("wide", 1<<50, 200, Line{Name: "wide", Points: baselines.PointsFromSeries(gauss(50, 1))})
	// Errors match too.
	check("tiny", 10, 10, Line{Name: "a", Points: baselines.PointsFromSeries([]float64{1})})
	check("empty", 400, 200, Line{Name: "empty"})
	check("none", 400, 200)
}

func BenchmarkAppendFixed2(b *testing.B) {
	vs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = 40 + rng.Float64()*800
	}
	buf := make([]byte, 0, 32)
	b.Run("fixed2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFixed2(buf[:0], vs[i&1023])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vs[i&1023], 'f', 2, 64)
		}
	})
}

func BenchmarkSVG(b *testing.B) {
	z := stats.ZScores(make([]float64, 800))
	rng := rand.New(rand.NewSource(2))
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	named := map[string][]float64{"smoothed": z}
	order := []string{"smoothed"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SVGSeries("bench", 880, 320, named, order); err != nil {
			b.Fatal(err)
		}
	}
}
