package analysis

import "strings"

// ConcurrentDirs lists the module-relative directories whose packages are
// mutex- and goroutine-heavy: the live serving engine, the storage manager
// and WAL, and the observability/flight-recorder stack. lockcheck's
// blocking-while-held rule applies to mutexes declared under these.
var ConcurrentDirs = []string{
	"internal/server",
	"internal/storage",
	"internal/obs",
}

// PathCovered reports whether pkgPath is one of the module-relative
// directories in dirs or a subpackage of one. A directory matches when it
// appears as a complete path-segment run inside the import path, so
// "internal/sim" covers "odbgc/internal/sim" and "odbgc/internal/sim/replay"
// but not "odbgc/internal/simulator". The analyzers that gate on package
// location (detrand, ctxflow, lockcheck) all share this
// predicate so their notions of coverage cannot drift apart.
func PathCovered(pkgPath string, dirs []string) bool {
	for _, d := range dirs {
		if pkgPath == d ||
			strings.HasSuffix(pkgPath, "/"+d) ||
			strings.HasPrefix(pkgPath, d+"/") ||
			strings.Contains(pkgPath, "/"+d+"/") {
			return true
		}
	}
	return false
}
