// Package hotpath is the seeded fixture for the hotpath analyzer:
// PredictHot and Server.admit are configured roots, coldCompile is a
// configured stop, and the bad patterns carry want expectations. The
// config also names a root and a stop the fixture does not declare,
// each a finding on the package clause.
package hotpath // want `hotpath root retiredRoot names no function` `hotpath stop retiredStop names no function`

import (
	"encoding/json"
	"fmt"
	"iter"
)

// Server mirrors the serve-layer shape so a method root exercises the
// Type.Method config spelling.
type Server struct{}

// PredictHot is a configured root: everything it reaches is hot.
func PredictHot(id int, name string) string {
	if err := coldCompile(name); err != nil {
		return ""
	}
	const prefix = "k" + "/" // constant-folded concat is free: not flagged
	_ = prefix
	_ = describe[int](id)
	for v := range labels(id) {
		_ = v
	}
	return buildKey(id, name)
}

// labels is reached from PredictHot, which ranges over the iterator it
// returns: the func literal runs inside the root's loop, so fmt there
// is flagged.
func labels(n int) iter.Seq[string] {
	return func(yield func(string) bool) {
		for i := range n {
			if !yield(fmt.Sprint(i)) { // want `fmt\.Sprint in labels`
				return
			}
		}
	}
}

// describe is reached through an explicit instantiation, f[T](x).
func describe[T any](v T) string {
	return fmt.Sprint(v) // want `fmt\.Sprint in describe`
}

// buildKey is reachable from PredictHot, so all four allocating
// idioms in it must be flagged.
func buildKey(id int, name string) string {
	s := fmt.Sprintf("k/%d", id) // want `fmt\.Sprintf in buildKey`
	s += name                    // want `string \+= in buildKey`
	s = s + grandfathered(name)  // want `string concatenation in buildKey`
	b, _ := json.Marshal(id)     // want `json\.Marshal in buildKey`
	return s + string(b)         // want `string concatenation in buildKey`
}

// admit is a configured root via the "Server.admit" spelling.
func (s *Server) admit(req string) error {
	if req == "" {
		return fmt.Errorf("empty request") // want `fmt\.Errorf in Server\.admit`
	}
	return nil
}

// grandfathered shows the escape hatch: reachable from a root, but the
// allow directive suppresses the concat finding.
func grandfathered(id string) string {
	return "prefix/" + id //lint:allow hotpath grandfathered call site pending append-builder port
}

// coldCompile is a configured stop: fmt here is sanctioned cold-path
// error construction and must not be flagged.
func coldCompile(name string) error {
	if name == "" {
		return fmt.Errorf("compile %s: empty graph", name)
	}
	return nil
}

// orphan is unreachable from any root; nothing in it is flagged.
func orphan(a, b string) string {
	return fmt.Sprintf("%s-%s", a, b)
}
