// Package hotpath is the seeded fixture for the hotpath analyzer:
// PredictHot, Server.admit and Server.build are roots by directive,
// coldCompile is a stop the walk meets, and the bad patterns, the
// misplaced or malformed directives among them, carry want
// expectations.
package hotpath

import (
	"encoding/json"
	"fmt"
	"iter"
)

// Server mirrors the serve-layer shape so a method root exercises the
// Type.Method spelling of findings.
type Server struct{}

// PredictHot is a root: everything it reaches is hot.
//
//lint:hotpath root
func PredictHot(id int, name string) string {
	if err := coldCompile(name); err != nil {
		return ""
	}
	const prefix = "k" + "/" // constant-folded concat is free: not flagged
	_ = prefix
	_ = describe[int](id)
	_ = (&box[int]{v: id}).describe()
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

// box is a generic type: a call to its method resolves to an
// instantiated method, which the walk must map back to the declaration.
type box[T any] struct{ v T }

// describe is reached through the instantiated method (*box[int]).describe.
func (b *box[T]) describe() string {
	return fmt.Sprint(b.v) // want `fmt\.Sprint in box\.describe`
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

// admit is a method root.
//
//lint:hotpath root
func (s *Server) admit(req string) error {
	if req == "" {
		return fmt.Errorf("empty request") // want `fmt\.Errorf in Server\.admit`
	}
	return s.lookup(req, (*Server).build)
}

// lookup calls build through a func value, which is no call edge: the
// walk from admit does not reach build.
func (s *Server) lookup(req string, build func(*Server, string) error) error {
	return build(s, req)
}

// build is handed to lookup as a method expression, so only its own
// directive makes it hot.
//
//lint:hotpath root
func (s *Server) build(req string) error {
	return fmt.Errorf("build %s", req) // want `fmt\.Errorf in Server\.build`
}

// unrooted is handed around like build but carries no directive, so
// nothing reaches it and nothing in it is flagged.
func (s *Server) unrooted(req string) error {
	return s.lookup(req, func(*Server, string) error { return fmt.Errorf("x") })
}

// grandfathered shows the escape hatch: reachable from a root, but the
// allow directive suppresses the concat finding.
func grandfathered(id string) string {
	return "prefix/" + id //lint:allow hotpath grandfathered call site pending append-builder port
}

// coldCompile is a stop the walk meets: fmt here is sanctioned
// cold-path error construction and must not be flagged.
//
//lint:hotpath stop formats the error of a compile that failed
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

// neverMet is a stop no reached function calls, so it exempts nothing.
//
//lint:hotpath stop formats an error nobody asks for // want `lint:hotpath stop on neverMet is met by no walk from a root`
func neverMet() error {
	return fmt.Errorf("never")
}

// both is a root and a stop at once: a finding, and it stays a root.
//
//lint:hotpath root
//lint:hotpath stop cold after all
func both() string { // want `both carries both lint:hotpath root and stop`
	return fmt.Sprint(1) // want `fmt\.Sprint in both`
}

// noReason is a stop without a reason: a finding, and no exemption, so
// the walk from its caller enters it.
//
//lint:hotpath stop
func noReason(id int) string { // want `lint:hotpath stop on noReason gives no reason`
	return fmt.Sprint(id) // want `fmt\.Sprint in noReason`
}

// callsNoReason is a root that reaches noReason.
//
//lint:hotpath root
func callsNoReason() string {
	return noReason(1)
}

// misspelled carries a directive the suite does not read: without the
// unknown-directive finding its root would silently drop.
//
//lint:hotpth root // want `unknown directive lint:hotpth`
func misspelled() string {
	return fmt.Sprint(2)
}

// malformed names neither root nor stop.
//
//lint:hotpath rooted // want `lint:hotpath takes root, or stop and a reason`
func malformed() string {
	return fmt.Sprint(3)
}

// A directive on a type or a var marks no function.
//
//lint:hotpath root // want `lint:hotpath outside a function's doc comment`
type Config struct{}

//lint:hotpath stop on a var // want `lint:hotpath outside a function's doc comment`
var defaultConfig = Config{}

func inBody() {
	//lint:hotpath root // want `lint:hotpath outside a function's doc comment`
	_ = defaultConfig
}
