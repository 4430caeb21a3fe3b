// Package workload describes the sparse inputs that drive DLRM
// training as table populations: per-table cardinality, pooling factor
// and popularity skew. It stands in for the Criteo Kaggle dataset the
// paper trains DLRM_MLPerf on — for performance modeling only the index
// *distribution* matters, and the ground truth's analytic cache model
// reads it from these three numbers rather than from index streams.
package workload

// TableSpec describes one sparse feature (one embedding table).
type TableSpec struct {
	// Rows is the table cardinality E.
	Rows int64
	// Lookups is the pooling factor L (indices per sample).
	Lookups int64
	// Skew is the Zipf exponent of index popularity (0 = uniform).
	Skew float64
}

// CriteoLikeTables returns a 26-table population with the Criteo Kaggle
// cardinality profile (a handful of multi-million-row tables, many tiny
// ones), single lookups, and mild popularity skew — the workload shape
// behind DLRM_MLPerf.
func CriteoLikeTables() []TableSpec {
	rows := []int64{
		14_000_000, 39_060, 17_295, 7_424, 20_265, 3, 7_122, 1_543, 63,
		11_700_000, 3_067_956, 405_282, 10, 2_209, 11_938, 155, 4, 976,
		14, 12_900_000, 7_800_000, 11_400_000, 590_152, 12_973, 108, 36,
	}
	out := make([]TableSpec, len(rows))
	for i, r := range rows {
		out[i] = TableSpec{Rows: r, Lookups: 1, Skew: 1.05}
	}
	return out
}

// UniformTables returns n identical uniform tables (the DLRM benchmark's
// synthetic default input).
func UniformTables(n int, rows, lookups int64) []TableSpec {
	out := make([]TableSpec, n)
	for i := range out {
		out[i] = TableSpec{Rows: rows, Lookups: lookups}
	}
	return out
}

// Rows extracts the per-table cardinalities of a population — the
// EmbRows field a DLRM graph builder consumes.
func Rows(tables []TableSpec) []int64 {
	out := make([]int64, len(tables))
	for i, t := range tables {
		out[i] = t.Rows
	}
	return out
}

// MeanLookups returns the population's average pooling factor, rounded
// and floored at 1 — the single L a fused-lookup graph models when
// tables disagree.
func MeanLookups(tables []TableSpec) int64 {
	if len(tables) == 0 {
		return 1
	}
	var sum int64
	for _, t := range tables {
		sum += t.Lookups
	}
	l := (sum + int64(len(tables))/2) / int64(len(tables))
	if l < 1 {
		l = 1
	}
	return l
}

// MeanSkew returns the population's average Zipf exponent.
func MeanSkew(tables []TableSpec) float64 {
	if len(tables) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range tables {
		sum += t.Skew
	}
	return sum / float64(len(tables))
}
