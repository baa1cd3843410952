package viz

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparklineBasics(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("rune count = %d", utf8.RuneCountInString(s))
	}
	if !strings.HasPrefix(s, "▁") || !strings.HasSuffix(s, "█") {
		t.Errorf("monotone ramp should go ▁..█: %q", s)
	}
}

func TestSparklineConstant(t *testing.T) {
	s := Sparkline([]float64{5, 5, 5})
	if utf8.RuneCountInString(s) != 3 {
		t.Fatalf("len = %d", utf8.RuneCountInString(s))
	}
	for _, r := range s {
		if r != '▅' {
			t.Errorf("constant series should render mid-height, got %q", s)
		}
	}
}

// Property: output length equals input length and min/max map to the
// extreme glyphs.
func TestSparklineProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, len(raw))
		allSame := true
		for i, v := range raw {
			vals[i] = float64(v)
			if v != raw[0] {
				allSame = false
			}
		}
		s := []rune(Sparkline(vals))
		if len(s) != len(vals) {
			return false
		}
		if allSame {
			return true
		}
		var hasLow, hasHigh bool
		for _, r := range s {
			if r == '▁' {
				hasLow = true
			}
			if r == '█' {
				hasHigh = true
			}
		}
		return hasLow && hasHigh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDownsample(t *testing.T) {
	in := []float64{1, 1, 3, 3, 5, 5}
	out := Downsample(in, 3)
	if len(out) != 3 || out[0] != 1 || out[1] != 3 || out[2] != 5 {
		t.Errorf("Downsample = %v", out)
	}
	// No-op when already short enough.
	same := Downsample(in, 10)
	if len(same) != 6 {
		t.Errorf("short input resampled: %v", same)
	}
	// Copy semantics.
	same[0] = 99
	if in[0] == 99 {
		t.Error("Downsample must copy")
	}
	if got := Downsample(in, 0); len(got) != 6 {
		t.Errorf("width 0 = %v", got)
	}
}
