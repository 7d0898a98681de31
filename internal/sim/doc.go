// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock (Time, in nanoseconds) and executes
// callbacks scheduled on it. Events that share an instant run in the order
// they were scheduled, so a simulation driven from a single seed is fully
// reproducible: the heap breaks time ties with a monotonically increasing
// sequence number. Scheduling is one-way: an event, once scheduled, runs.
// A caller that may change its mind checks a flag in its own callback.
//
// The kernel is single-threaded by design. Parallelism in this repository
// happens one level up: independent simulations (one per experiment point)
// run concurrently on separate Engine instances.
//
// Clock is where the live runtime reads the time: Wall, or a Virtual
// clock whose timers wait on an Engine agenda behind a mutex and fire
// only when the test that owns it advances it.
package sim
