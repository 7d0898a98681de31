package verify

import (
	"strings"
	"testing"

	"mralloc/internal/resource"
)

func collect() (*[]Violation, func(Violation)) {
	var vs []Violation
	return &vs, func(v Violation) { vs = append(vs, v) }
}

func TestCleanRun(t *testing.T) {
	vs, report := collect()
	m := New(4, report)
	rs := resource.FromIDs(4, 0, 2)
	m.Requested(1, 10)
	m.Granted(1, rs, 20)
	m.Released(1, rs, 30)
	m.CheckQuiescent(40)
	if len(*vs) != 0 {
		t.Fatalf("violations on clean run: %v", *vs)
	}
	if m.Grants() != 1 {
		t.Fatalf("grants = %d", m.Grants())
	}
}

func TestSafetyViolationDetected(t *testing.T) {
	vs, report := collect()
	m := New(4, report)
	a := resource.FromIDs(4, 1)
	m.Requested(0, 1)
	m.Granted(0, a, 2)
	m.Requested(2, 3)
	m.Granted(2, a, 4) // resource 1 double-granted
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Desc, "safety") {
		t.Fatalf("violations = %v", *vs)
	}
	if !strings.Contains((*vs)[0].Error(), "invariant violated") {
		t.Fatalf("Error() = %q", (*vs)[0].Error())
	}
}

func TestHypothesis4ViolationDetected(t *testing.T) {
	vs, report := collect()
	m := New(2, report)
	m.Requested(0, 1)
	m.Requested(0, 2)
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Desc, "hypothesis 4") {
		t.Fatalf("violations = %v", *vs)
	}
}

func TestGrantWithoutRequestDetected(t *testing.T) {
	vs, report := collect()
	m := New(2, report)
	m.Granted(0, resource.FromIDs(2, 0), 5)
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Desc, "without a pending request") {
		t.Fatalf("violations = %v", *vs)
	}
}

func TestForeignReleaseDetected(t *testing.T) {
	vs, report := collect()
	m := New(2, report)
	rs := resource.FromIDs(2, 0)
	m.Requested(0, 1)
	m.Granted(0, rs, 2)
	m.Released(1, rs, 3)
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Desc, "released resource") {
		t.Fatalf("violations = %v", *vs)
	}
}

func TestLivenessViolationAtQuiescence(t *testing.T) {
	vs, report := collect()
	m := New(2, report)
	m.Requested(3, 7)
	m.CheckQuiescent(100)
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Desc, "liveness") {
		t.Fatalf("violations = %v", *vs)
	}
}

// TestViolationsInSiteOrder: liveness violations come out in site order
// on every run, so the first one — all a panicking report ever shows —
// is the same each time a failing schedule is replayed.
func TestViolationsInSiteOrder(t *testing.T) {
	want := []string{"site 1 ", "site 4 ", "site 7 "}
	for rep := 0; rep < 20; rep++ {
		vs, report := collect()
		m := New(2, report)
		m.Requested(7, 1)
		m.Requested(1, 2)
		m.Requested(4, 3)
		m.CheckQuiescent(100)
		m.CheckLiveness(100, 10)
		if len(*vs) != 2*len(want) {
			t.Fatalf("violations = %v", *vs)
		}
		for i, v := range *vs {
			if !strings.Contains(v.Desc, want[i%len(want)]) {
				t.Fatalf("repetition %d: violation %d is %q, want %q first", rep, i, v.Desc, want[i%len(want)])
			}
		}
	}
}

func TestHeldAtQuiescenceDetected(t *testing.T) {
	vs, report := collect()
	m := New(2, report)
	rs := resource.FromIDs(2, 1)
	m.Requested(0, 1)
	m.Granted(0, rs, 2)
	m.CheckQuiescent(50)
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Desc, "still held") {
		t.Fatalf("violations = %v", *vs)
	}
}

func TestPendingIntrospection(t *testing.T) {
	_, report := collect()
	m := New(2, report)
	if _, ok := m.OldestPending(); ok {
		t.Fatal("fresh monitor has pending requests")
	}
	m.Requested(4, 40)
	m.Requested(2, 20)
	at, ok := m.OldestPending()
	if !ok || at != 20 {
		t.Fatalf("OldestPending = %v, %v", at, ok)
	}
	p := m.PendingRequests()
	if len(p) != 2 || p[4] != 40 {
		t.Fatalf("PendingRequests = %v", p)
	}
	// The returned map is a copy.
	delete(p, 4)
	if len(m.PendingRequests()) != 2 {
		t.Fatal("PendingRequests exposed internal state")
	}
}
