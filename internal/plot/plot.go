// Package plot renders time series as ASCII charts (for terminals and the
// examples) and as standalone SVG documents (for the demo server and the
// figure outputs of cmd/asap-bench). Only the standard library is used.
package plot

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/asap-go/asap/internal/baselines"
	"github.com/asap-go/asap/internal/stats"
)

// ErrInput reports unusable plot input.
var ErrInput = errors.New("plot: invalid input")

// ASCII renders xs as a width x height character chart with a braille-like
// density: each column shows the series' value at that position. It is the
// quick-look renderer used by the examples and CLI.
func ASCII(xs []float64, width, height int) (string, error) {
	if len(xs) == 0 {
		return "", fmt.Errorf("%w: empty series", ErrInput)
	}
	if width < 2 || height < 2 {
		return "", fmt.Errorf("%w: %dx%d canvas", ErrInput, width, height)
	}
	// Resample to width columns (mean per column preserves level).
	cols := resample(xs, width)
	lo, hi, err := stats.MinMax(cols)
	if err != nil {
		return "", err
	}
	if hi == lo {
		hi, lo = hi+0.5, lo-0.5
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	prevRow := -1
	for c, v := range cols {
		f := (v - lo) / (hi - lo)
		row := int(math.Round((1 - f) * float64(height-1)))
		grid[row][c] = '*'
		// Connect vertically to the previous column for continuity.
		if prevRow >= 0 && row != prevRow {
			step := 1
			if row < prevRow {
				step = -1
			}
			for r := prevRow + step; r != row; r += step {
				if grid[r][c] == ' ' {
					grid[r][c] = '|'
				}
			}
		}
		prevRow = row
	}
	var b strings.Builder
	for r := range grid {
		b.WriteString(strings.TrimRight(string(grid[r]), " "))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "[min %.4g, max %.4g, n=%d]\n", lo, hi, len(xs))
	return b.String(), nil
}

// resample reduces or stretches xs to exactly width values via bucket
// means (reduction) or linear interpolation (stretch).
func resample(xs []float64, width int) []float64 {
	n := len(xs)
	out := make([]float64, width)
	if n == width {
		copy(out, xs)
		return out
	}
	if n > width {
		for c := 0; c < width; c++ {
			lo, hi := c*n/width, (c+1)*n/width
			if hi == lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range xs[lo:hi] {
				sum += v
			}
			out[c] = sum / float64(hi-lo)
		}
		return out
	}
	for c := 0; c < width; c++ {
		pos := float64(c) * float64(n-1) / float64(width-1)
		i := int(pos)
		if i >= n-1 {
			out[c] = xs[n-1]
			continue
		}
		t := pos - float64(i)
		out[c] = xs[i] + t*(xs[i+1]-xs[i])
	}
	return out
}

// Line describes one polyline in an SVG chart.
type Line struct {
	Name   string
	Points []baselines.Point
	// Color is any SVG color string; empty picks from a default palette.
	Color string
}

var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// SVG renders one or more series as a standalone SVG line chart with a
// shared y-range and a small legend. The output is a complete SVG document.
func SVG(title string, width, height int, lines ...Line) (string, error) {
	if width < 50 || height < 50 {
		return "", fmt.Errorf("%w: %dx%d canvas too small", ErrInput, width, height)
	}
	if len(lines) == 0 {
		return "", fmt.Errorf("%w: no lines", ErrInput)
	}
	// Shared viewport across all lines.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	// Every path coordinate pair takes ~15 bytes on a canvas under
	// 1000 px; 16 per point plus the fixed elements sizes the buffer
	// so the common document is built without regrowing.
	size := 512 + len(title)
	for _, l := range lines {
		if len(l.Points) == 0 {
			return "", fmt.Errorf("%w: line %q has no points", ErrInput, l.Name)
		}
		for _, p := range l.Points {
			xmin, xmax = math.Min(xmin, p.X), math.Max(xmax, p.X)
			ymin, ymax = math.Min(ymin, p.Y), math.Max(ymax, p.Y)
		}
		size += 256 + len(l.Name) + len(l.Color) + 16*len(l.Points)
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

	b := make([]byte, 0, size)
	b = fmt.Appendf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b = append(b, `<rect width="100%" height="100%" fill="white"/>`+"\n"...)
	b = fmt.Appendf(b, `<text x="%d" y="24" font-family="sans-serif" font-size="16">%s</text>`+"\n",
		int(margin), escapeXML(title))
	// Axes.
	b = fmt.Appendf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n",
		margin, margin+plotH, margin+plotW, margin+plotH)
	b = fmt.Appendf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n",
		margin, margin, margin, margin+plotH)
	b = fmt.Appendf(b, `<text x="4" y="%.1f" font-family="sans-serif" font-size="10">%.3g</text>`+"\n", margin+6, ymax)
	b = fmt.Appendf(b, `<text x="4" y="%.1f" font-family="sans-serif" font-size="10">%.3g</text>`+"\n", margin+plotH, ymin)

	for i, l := range lines {
		color := l.Color
		if color == "" {
			color = palette[i%len(palette)]
		}
		b = append(b, `<path d="`...)
		for j, p := range l.Points {
			if j == 0 {
				b = append(b, 'M')
			} else {
				b = append(b, " L"...)
			}
			b = appendFixed2(b, tx(p.X))
			b = append(b, ' ')
			b = appendFixed2(b, ty(p.Y))
		}
		b = append(b, `" fill="none" stroke="`...)
		b = append(b, color...)
		b = append(b, `" stroke-width="1.2"/>`+"\n"...)
		// Legend entry.
		lx := margin + plotW - 140
		lyOff := margin + 14*float64(i)
		b = fmt.Appendf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
			lx, lyOff, lx+18, lyOff, color)
		b = fmt.Appendf(b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+24, lyOff+4, escapeXML(l.Name))
	}
	b = append(b, "</svg>\n"...)
	return string(b), nil
}

// appendFixed2 appends v formatted as strconv.AppendFloat(dst, v, 'f', 2,
// 64) does, byte for byte. strconv serves 'f' with a precision through
// its multiprecision decimal path; this one is exact in uint64 instead.
// For finite |v| < 2^46 the float is mant·2^-s with mant < 2^53 and
// s >= 7, so |v|·100 = mant·100·2^-s with mant·100 < 2^60: the shift's
// quotient and remainder give round-half-to-even of |v|·100 exactly,
// which is what strconv's exact decimal rounding computes. NaN, ±Inf
// and larger magnitudes, never pixel coordinates, take strconv.
func appendFixed2(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	if exp >= 1023+46 {
		return strconv.AppendFloat(dst, v, 'f', 2, 64)
	}
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit, same scale as the smallest normal
	} else {
		mant |= 1 << 52
	}
	var n uint64
	if s := uint(1075 - exp); s <= 60 {
		m := mant * 100
		n = m >> s
		rem, half := m&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	} // else |v|·100 < 2^60·2^-61 = 1/2: rounds to 0
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, n/100, 10)
	return append(dst, '.', byte('0'+n/10%10), byte('0'+n%10))
}

// SVGSeries is a convenience wrapper plotting dense series (index as x).
func SVGSeries(title string, width, height int, named map[string][]float64, order []string) (string, error) {
	lines := make([]Line, 0, len(named))
	for _, name := range order {
		vals, ok := named[name]
		if !ok {
			return "", fmt.Errorf("%w: series %q not in map", ErrInput, name)
		}
		lines = append(lines, Line{Name: name, Points: baselines.PointsFromSeries(vals)})
	}
	return SVG(title, width, height, lines...)
}

var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escapeXML(s string) string { return xmlEscaper.Replace(s) }
