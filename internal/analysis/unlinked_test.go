package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

func TestUnlinkedFixture(t *testing.T) {
	for _, name := range []string{"unlinked", "unlinkedpkg"} {
		f, err := os.Open(filepath.Join("testdata", "src", name, "linked.txt"))
		if err != nil {
			t.Fatal(err)
		}
		linked, err := ParseLinked(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		RunFixture(t, name, Unlinked(linked))
	}
}

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"p.F":                                    "p.F",
		"p.F[go.shape.int]":                      "p.F",
		"p.(*Box[go.shape.string]).Get":          "p.(*Box).Get",
		"p.F[go.shape.[]p.Request].func1":        "p.F.func1",
		"p.memo[go.shape.*uint8,go.shape.struct": "p.memo",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}
