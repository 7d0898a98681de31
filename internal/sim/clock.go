package sim

import (
	"sync"
	"time"
)

// Clock is where a live runtime reads the time and waits on it. Wall
// is the real clock; a Virtual clock moves only when its owner advances
// it, so whatever waits on it runs the same schedule on every run.
type Clock interface {
	// Now reports the time since the clock's origin.
	Now() Time
	// Sleep blocks until d has passed on the clock.
	Sleep(d time.Duration)
	// NewTimer returns a timer armed to fire once d has passed.
	NewTimer(d time.Duration) Timer
}

// Timer is a one-shot timer of a Clock, shaped like time.Timer: C
// receives one value when it fires, Stop and Reset report whether it
// was armed, and no value armed before a Stop or Reset is received
// after it. It is a value, so a wall timer costs what its time.Timer
// does: w is that timer, v the state of a virtual one.
type Timer struct {
	C <-chan time.Time
	w *time.Timer
	v *vtimer
}

// vtimer is a virtual timer's state, guarded by its clock's lock.
type vtimer struct {
	clk   *Virtual
	c     chan time.Time
	due   Time
	armed bool
	fire  func()
}

// Stop disarms the timer, reporting whether it was armed.
func (t Timer) Stop() bool {
	if t.w != nil {
		return t.w.Stop()
	}
	t.v.clk.mu.Lock()
	defer t.v.clk.mu.Unlock()
	return t.v.disarm()
}

// Reset re-arms the timer to fire d from now, reporting whether it was armed.
func (t Timer) Reset(d time.Duration) bool {
	if t.w != nil {
		return t.w.Reset(d)
	}
	t.v.clk.mu.Lock()
	defer t.v.clk.mu.Unlock()
	was := t.v.disarm()
	t.v.arm(d)
	return was
}

// ResetAt re-arms the timer to fire once its clock reaches at, at once
// if it has, reporting whether it was armed. Unlike Reset(at - Now()),
// it reads the clock as it arms, so a virtual clock advanced in between
// cannot make it fire late.
func (t Timer) ResetAt(at Time) bool {
	if t.w != nil {
		return t.w.Reset(time.Duration(at - wall{}.Now()))
	}
	t.v.clk.mu.Lock()
	defer t.v.clk.mu.Unlock()
	was := t.v.disarm()
	t.v.arm(time.Duration(at - t.v.clk.eng.Now()))
	return was
}

var wallEpoch = time.Now() // the wall clock's origin

type wall struct{}

// Wall returns the real clock, the default of every live runtime: Now
// counts on the monotonic clock from process start, Sleep is
// time.Sleep and a timer is a time.Timer.
func Wall() Clock { return wall{} }

func (wall) Now() Time             { return Time(time.Since(wallEpoch)) }
func (wall) Sleep(d time.Duration) { time.Sleep(d) }

func (wall) NewTimer(d time.Duration) Timer {
	w := time.NewTimer(d)
	return Timer{C: w.C, w: w}
}

// Virtual is a clock that stands still until Advance moves it. Its
// timers wait on an Engine agenda and fire, in due order, as Advance
// passes them; a stopped or re-armed timer's entry stays behind and its
// callback skips it, so the Engine needs no cancellation. Safe for
// concurrent use: goroutines arm timers while a test advances.
type Virtual struct {
	mu    sync.Mutex
	eng   *Engine
	armed int
}

// NewVirtual returns a virtual clock at zero with no timer armed.
func NewVirtual() *Virtual { return &Virtual{eng: New()} }

// Now reports the time the clock has been advanced to.
func (v *Virtual) Now() Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.eng.Now()
}

// Sleep blocks until the clock has been advanced by d.
func (v *Virtual) Sleep(d time.Duration) { <-v.NewTimer(d).C }

// NewTimer implements Clock. A timer armed for d ≤ 0 fires at once.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	c := make(chan time.Time, 1)
	t := &vtimer{clk: v, c: c}
	t.fire = func() {
		if t.armed && t.due == v.eng.Now() {
			t.disarm()
			t.c <- time.Time{}
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	t.arm(d)
	return Timer{C: c, v: t}
}

// Advance moves the clock d forward, firing every timer due on the way.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.eng.RunUntil(v.eng.Now() + Time(d))
}

// Armed reports how many timers are armed: a test that advances only once
// the goroutines it drives have re-armed theirs replays one schedule.
func (v *Virtual) Armed() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.armed
}

// arm and disarm run under the clock's lock; disarm also drains a fired
// value nobody took.
func (t *vtimer) arm(d time.Duration) {
	t.armed = true
	t.clk.armed++
	t.due = t.clk.eng.Now() + Time(max(d, 0))
	t.clk.eng.At(t.due, t.fire)
	if d <= 0 {
		t.clk.eng.RunUntil(t.due)
	}
}

func (t *vtimer) disarm() (was bool) {
	select {
	case <-t.c:
	default:
	}
	if was = t.armed; was {
		t.armed = false
		t.clk.armed--
	}
	return was
}
