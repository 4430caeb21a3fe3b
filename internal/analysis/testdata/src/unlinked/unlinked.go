// A package allow where the package has linked functions is stale.
//
//lint:allow unlinked fixture: the package is linked // want `lint:allow unlinked suppresses nothing`
package unlinked

// linked.txt, beside this file, lists what a program links of this
// package, in `make linked` form.

func Linked() {}

func Plain() {} // want `unlinked\.Plain is linked by no program`

type T struct{}

// A value method matches either of the names the linker may keep.
func (T) LinkedValue()          {}
func (T) LinkedThroughWrapper() {}

func (T) Value() {} // want `unlinked\.T\.Value is linked by no program`

func (*T) LinkedPointer() {}

func (*T) Pointer() {} // want `unlinked\.\(\*T\)\.Pointer is linked by no program`

func GenericLinked[E any](e E) E { return e }

func Generic[E any](e E) E { return e } // want `unlinked\.Generic is linked by no program`

type Box[E any] struct{ v E }

func (b *Box[E]) Put(v E) { b.v = v }

func (b *Box[E]) Get() E { return b.v } // want `unlinked\.\(\*Box\)\.Get is linked by no program`

func init() {}

// Allowed is reached from tests alone, and says why it stays.
//
//lint:allow unlinked fixture: a contract-test helper
func Allowed() {}

// An exemption on a linked declaration is stale and reported.
//
//lint:allow unlinked fixture: no longer needed // want `lint:allow unlinked suppresses nothing`
func StaleAllow() {}

// A directive without a reason suppresses nothing.
//
//lint:allow unlinked
func NoReason() {} // want `unlinked\.NoReason is linked by no program`
