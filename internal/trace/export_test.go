package trace

// AllocatedBytes shares the allocation meter with the external test package,
// which holds the tests that need an OO7 trace (oo7 imports trace).
var AllocatedBytes = allocatedBytes
