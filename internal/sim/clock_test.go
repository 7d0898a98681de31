package sim

import (
	"testing"
	"time"
)

// fired reports whether t has fired, without waiting.
func fired(t Timer) bool {
	select {
	case <-t.C:
		return true
	default:
		return false
	}
}

// TestVirtualTimers: a virtual timer fires only when Advance passes its
// instant; Stop and Reset leave an agenda entry behind that no longer
// fires; Armed counts what is still to fire.
func TestVirtualTimers(t *testing.T) {
	v := NewVirtual()
	a := v.NewTimer(3 * time.Millisecond)
	b := v.NewTimer(time.Millisecond)
	c := v.NewTimer(2 * time.Millisecond)
	if v.Armed() != 3 {
		t.Fatalf("armed %d, want 3", v.Armed())
	}
	v.Advance(1500 * time.Microsecond)
	if !fired(b) || fired(a) || fired(c) {
		t.Fatal("at 1.5ms only the 1ms timer fires")
	}
	if v.Now() != 1500*Microsecond {
		t.Fatalf("Now() = %v after advancing 1.5ms", v.Now())
	}
	if !c.Stop() || c.Stop() {
		t.Fatal("Stop reports true for an armed timer, then false")
	}
	if !a.Reset(5 * time.Millisecond) {
		t.Fatal("Reset of an armed timer reports true")
	}
	v.Advance(2 * time.Millisecond) // 3.5ms: a's old instant and c's pass
	if fired(a) || fired(c) {
		t.Fatal("a stopped or re-armed timer fired at its old instant")
	}
	if v.Armed() != 1 {
		t.Fatalf("armed %d, want 1 (a, re-armed for 6.5ms)", v.Armed())
	}
	v.Advance(3 * time.Millisecond)
	if !fired(a) || v.Armed() != 0 {
		t.Fatal("the re-armed timer did not fire at its new instant")
	}
	if b.Reset(0) || !fired(b) {
		t.Fatal("a timer re-armed for 0 fires at once")
	}
}

// TestVirtualResetAt: a timer re-armed for an instant fires when the
// clock reaches it, and at once for an instant already passed.
func TestVirtualResetAt(t *testing.T) {
	v := NewVirtual()
	a := v.NewTimer(time.Millisecond)
	v.Advance(2 * time.Millisecond)
	if !fired(a) {
		t.Fatal("the 1ms timer did not fire at 2ms")
	}
	if a.ResetAt(3*Millisecond) || fired(a) {
		t.Fatal("ResetAt of a fired timer reports false and does not fire before its instant")
	}
	v.Advance(500 * time.Microsecond)
	if fired(a) {
		t.Fatal("a timer re-armed for 3ms fired at 2.5ms")
	}
	v.Advance(500 * time.Microsecond)
	if !fired(a) || v.Armed() != 0 {
		t.Fatal("a timer re-armed for 3ms did not fire at 3ms")
	}
	if a.ResetAt(Millisecond) || !fired(a) {
		t.Fatal("a timer re-armed for a passed instant fires at once")
	}
}

// TestVirtualSleep: Sleep returns once the clock passes its end, and
// not before.
func TestVirtualSleep(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Second)
		close(done)
	}()
	for deadline := time.Now().Add(10 * time.Second); v.Armed() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Sleep armed no timer within 10s")
		}
	}
	v.Advance(999 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Sleep(1s) returned at 999ms")
	default:
	}
	v.Advance(time.Millisecond)
	<-done
}

// TestWallNowAllocs: the live runtime reads the wall clock through the
// Clock interface on every admission, so the read must allocate
// nothing.
func TestWallNowAllocs(t *testing.T) {
	c := Wall()
	if got := testing.AllocsPerRun(1000, func() { _ = c.Now() }); got != 0 {
		t.Fatalf("%v allocs per Wall().Now(), want 0", got)
	}
	w := c.NewTimer(time.Hour)
	if !w.Stop() || fired(w) {
		t.Fatal("a stopped wall timer fired")
	}
}

// wallClock is the wall clock behind the interface a live runtime holds
// it by, so a timer it makes is not inlined away.
var wallClock = Wall()

// TestWallTimerAllocs: the live stack arms its timers through Clock, so
// a wall Timer must cost what the time.Timer it wraps costs and no
// object more.
func TestWallTimerAllocs(t *testing.T) {
	want := testing.AllocsPerRun(1000, func() { time.NewTimer(time.Hour).Stop() })
	if got := testing.AllocsPerRun(1000, func() { wallClock.NewTimer(time.Hour).Stop() }); got > want {
		t.Fatalf("%v allocs per wall NewTimer+Stop, want %v as time.NewTimer", got, want)
	}
}
