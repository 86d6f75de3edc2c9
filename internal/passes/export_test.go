package passes

// RefCountSrcs exposes the ownership corpus to the external test package,
// which compiles it through core and exports it to C.
var RefCountSrcs = refCountSrcs
