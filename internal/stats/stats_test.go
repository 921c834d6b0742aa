package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("x", 1.5)
	tb.AddRow("longer-name", "hello")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines: %q", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header %q", lines[0])
	}
	if !strings.Contains(lines[2], "1.50") {
		t.Errorf("float not formatted: %q", lines[2])
	}
	// Columns align: "value" column starts at the same offset everywhere.
	off := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[3][off:], "hello") {
		t.Errorf("misaligned: %q", lines[3])
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(`comma,here`, `quote"here`)
	var b strings.Builder
	tb.CSV(&b)
	out := b.String()
	if !strings.Contains(out, `"comma,here"`) {
		t.Errorf("comma not escaped: %q", out)
	}
	if !strings.Contains(out, `"quote""here"`) {
		t.Errorf("quote not escaped: %q", out)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		min, max := MinMax(xs)
		if min > max {
			return false
		}
		for _, x := range xs {
			if x < min || x > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MinMax(nil)
}
