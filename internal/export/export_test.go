package export

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "a", "bee", "c")
	tb.AddRow("x", 1.5, 42)
	tb.AddRow("longer", "str", 7)
	out := tb.Render()
	if !strings.HasPrefix(out, "Title\n") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	// Title, header, separator, then the rows.
	if !strings.Contains(lines[2], "---") {
		t.Error("missing separator")
	}
	if !strings.Contains(lines[3], "1.50") {
		t.Errorf("float not formatted: %q", lines[3])
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.0796) != "+7.96%" {
		t.Errorf("Pct = %q", Pct(0.0796))
	}
	if Pct(-0.537) != "-53.70%" {
		t.Errorf("Pct = %q", Pct(-0.537))
	}
	if PctAbs(0.0461) != "4.61%" {
		t.Errorf("PctAbs = %q", PctAbs(0.0461))
	}
	if Us(123.4) != "123us" {
		t.Errorf("Us = %q", Us(123.4))
	}
	if Ms(12345) != "12.35ms" {
		t.Errorf("Ms = %q", Ms(12345))
	}
}
