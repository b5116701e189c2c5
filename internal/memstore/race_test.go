//go:build race

package memstore

// raceEnabled reports whether this test binary was built with the race
// detector; allocation-count pins are skipped under it because its
// instrumentation perturbs the allocator.
const raceEnabled = true
