package tensor

import (
	"testing"
	"testing/quick"
)

func TestNumelAndBytes(t *testing.T) {
	m := New(2048, 64)
	if m.Numel() != 2048*64 {
		t.Errorf("Numel = %d", m.Numel())
	}
	if m.Bytes() != 2048*64*4 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
	i := NewTyped(Int64, 100)
	if i.Bytes() != 800 {
		t.Errorf("int64 Bytes = %d", i.Bytes())
	}
}

func TestScalar(t *testing.T) {
	s := New()
	if s.Numel() != 1 || s.Rank() != 0 {
		t.Errorf("scalar: numel=%d rank=%d", s.Numel(), s.Rank())
	}
	if got := s.WithBatch(16); got.String() != s.String() {
		t.Errorf("WithBatch on scalar changed it: %v", got)
	}
}

func TestDim(t *testing.T) {
	m := New(4, 5, 6)
	if m.Dim(0) != 4 || m.Dim(2) != 6 {
		t.Error("positive Dim wrong")
	}
	if m.Dim(-1) != 6 || m.Dim(-3) != 4 {
		t.Error("negative Dim wrong")
	}
}

func TestDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Dim did not panic")
		}
	}()
	New(2, 3).Dim(5)
}

func TestWithBatch(t *testing.T) {
	m := New(512, 64)
	b := m.WithBatch(4096)
	if b.Dim(0) != 4096 || b.Dim(1) != 64 {
		t.Errorf("WithBatch = %v", b)
	}
	// Original must be unchanged (no aliasing).
	if m.Dim(0) != 512 {
		t.Error("WithBatch mutated the receiver")
	}
}

// TestWithBatchNoAliasing: a Meta is a value, so the copy WithBatch
// returns shares no storage with its receiver — changing any dimension
// of the copy leaves the original as it was, and the original still
// equals a fresh meta of its shape.
func TestWithBatchNoAliasing(t *testing.T) {
	f := func(a, b uint16) bool {
		m := New(int64(a)%100+1, 7)
		n := m.WithBatch(int64(b)%100+1).WithDim(1, 999).WithDim(-1, 998)
		return m.Dim(1) == 7 && n.Dim(1) == 998 && m == New(int64(a)%100+1, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankAboveMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a rank-5 shape did not panic")
		}
	}()
	New(1, 2, 3, 4, 5)
}

// TestEqual: two metas render the same String exactly when they have
// the same shape and dtype, so tests compare metas by String.
func TestEqual(t *testing.T) {
	if New(2, 3).String() != New(2, 3).String() {
		t.Error("equal shapes rendered differently")
	}
	for _, other := range []Meta{New(3, 2), NewTyped(Int64, 2, 3), New(2, 3, 1), New(23)} {
		if New(2, 3).String() == other.String() {
			t.Errorf("%v renders like float32[2, 3]", other)
		}
	}
}

func TestString(t *testing.T) {
	got := New(2048, 64).String()
	if got != "float32[2048, 64]" {
		t.Errorf("String = %q", got)
	}
	got = NewTyped(Int64, 3).String()
	if got != "int64[3]" {
		t.Errorf("String = %q", got)
	}
}

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int64{Float32: 4, Float16: 2, Int64: 8, Int32: 4}
	for dt, want := range cases {
		if dt.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", dt, dt.Size(), want)
		}
	}
}
