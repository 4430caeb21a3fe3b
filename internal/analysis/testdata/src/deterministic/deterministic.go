// Package deterministic is the seeded fixture for the deterministic
// analyzer: ambient nondeterminism sources carry want expectations;
// the collect-then-sort and map-write idioms must stay quiet.
//
//lint:deterministic
package deterministic

import (
	"math/rand"
	"sort"
	"time"
)

// Fingerprint appends map keys in iteration order: nondeterministic
// output, flagged.
func Fingerprint(parts map[string]int) []string { // no sort anywhere in this function
	var out []string
	for k := range parts { // want `map iteration order feeds an appended slice`
		out = append(out, k)
	}
	return out
}

// CanonicalNames is the sanctioned collect-then-sort idiom: quiet.
func CanonicalNames(parts map[string]int) []string {
	var out []string
	for k := range parts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Counts writes into another map: order-independent, quiet.
func Counts(parts map[string]int) map[string]int {
	c := map[string]int{}
	for k, v := range parts {
		c[k] = v
	}
	return c
}

// Total adds map values into a float in iteration order: the sum's
// last bits change from run to run, flagged.
func Total(parts map[string]float64) float64 {
	total := 0.0
	for _, v := range parts { // want `map iteration order sets the order of a float sum`
		total += v
	}
	return total
}

// Tally adds into an integer, and into a float declared in the loop
// body: both order-independent, quiet.
func Tally(parts map[string]float64) int {
	n := 0
	for _, v := range parts {
		scaled := 0.0
		scaled += 2 * v
		if scaled > 1 {
			n += 1
		}
	}
	return n
}

// Stamp reads the wall clock: flagged.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in identity package`
}

// Jitter uses global math/rand: flagged.
func Jitter(n int) int {
	return rand.Intn(n) // want `math/rand in identity package`
}

// BootBanner shows the escape hatch: the allow directive on the line
// above suppresses the finding.
func BootBanner() int64 {
	//lint:allow deterministic boot-time banner only; never feeds a fingerprint
	return time.Now().Unix()
}

// A package directive anywhere but the package doc scopes nothing.
//
//lint:deterministic // want `lint:deterministic outside a package doc comment`
var seed = 1
