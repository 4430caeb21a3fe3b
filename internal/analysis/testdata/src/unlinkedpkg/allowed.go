// Package unlinkedpkg is linked by no program: each file that declares a
// function carries one finding, on its package clause.
//
//lint:allow unlinked fixture: a reference only tests read
package unlinkedpkg

func Reference() {}

func (T) Method() {}
