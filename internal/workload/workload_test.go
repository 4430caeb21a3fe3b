package workload

import "testing"

func TestCriteoLikeTables(t *testing.T) {
	want := []int64{
		14_000_000, 39_060, 17_295, 7_424, 20_265, 3, 7_122, 1_543, 63,
		11_700_000, 3_067_956, 405_282, 10, 2_209, 11_938, 155, 4, 976,
		14, 12_900_000, 7_800_000, 11_400_000, 590_152, 12_973, 108, 36,
	}
	tables := CriteoLikeTables()
	if len(tables) != 26 {
		t.Fatalf("tables = %d, want 26", len(tables))
	}
	for i, tb := range tables {
		if tb.Rows != want[i] {
			t.Errorf("table %d rows = %d, want %d", i, tb.Rows, want[i])
		}
		if tb.Lookups != 1 {
			t.Errorf("table %d lookups = %d: Criteo features are one-hot, L must be 1", i, tb.Lookups)
		}
		if tb.Skew != 1.05 {
			t.Errorf("table %d skew = %v, want 1.05", i, tb.Skew)
		}
	}
}
