package unlinkedpkg // want `package unlinkedpkg is linked by no program`

func helper() {}
