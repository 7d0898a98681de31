//go:build race

package leakcheck

// Race reports whether the test binary was built with the race
// detector. Allocation budgets skip themselves under it: the detector's
// instrumentation allocates, and sync.Pool drops entries at random.
const Race = true
