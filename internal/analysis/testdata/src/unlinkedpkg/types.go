package unlinkedpkg

// A file that declares no function has nothing to link.
type T struct{}
