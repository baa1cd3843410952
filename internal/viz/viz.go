// Package viz renders tiny terminal visualizations — sparklines — so the
// experiment CLIs can show the *shape* of a series (diurnal carbon
// curves, monthly trends) alongside its numbers.
package viz

import "strings"

// ticks are the eight block glyphs a sparkline quantizes into.
var ticks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-height unicode strip, scaling
// min..max onto the eight block glyphs. Empty input yields "".
// A constant series renders at half height.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	min, max := values[0], values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	span := max - min
	for _, v := range values {
		idx := len(ticks) / 2
		if span > 0 {
			idx = int((v - min) / span * float64(len(ticks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ticks) {
			idx = len(ticks) - 1
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}

// Downsample reduces values to at most width points by averaging
// consecutive buckets, so long series fit a terminal row.
func Downsample(values []float64, width int) []float64 {
	if width <= 0 || len(values) <= width {
		return append([]float64(nil), values...)
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}
