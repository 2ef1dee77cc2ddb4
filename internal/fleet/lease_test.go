package fleet

import (
	"testing"
	"time"
)

// TestLeaseLifecycle: grant → renew pushes the deadline → complete retires
// exactly once.
func TestLeaseLifecycle(t *testing.T) {
	clk := newTestClock()
	m := NewLeaseManager(10*time.Second, clk.Now)

	l := m.Grant("j1", "w1")
	if l.Job != "j1" || l.Worker != "w1" || l.ID == "" {
		t.Fatalf("grant = %+v", l)
	}
	if m.Active() != 1 {
		t.Fatalf("Active = %d after grant, want 1", m.Active())
	}

	// Renew at t+8 pushes expiry to t+18: the original deadline passing must
	// not expire it.
	clk.Advance(8 * time.Second)
	if _, ok := m.Renew(l.ID, "w1"); !ok {
		t.Fatal("renew of live lease refused")
	}
	clk.Advance(4 * time.Second) // t+12: past the original t+10 deadline
	if exp := m.Expire(clk.Now()); len(exp) != 0 {
		t.Fatalf("renewed lease expired: %+v", exp)
	}

	got, ok := m.Complete(l.ID, "w1")
	if !ok || got.Job != "j1" {
		t.Fatalf("complete = %+v, %v", got, ok)
	}
	if _, ok := m.Complete(l.ID, "w1"); ok {
		t.Fatal("second complete succeeded; must be exactly-once")
	}
	if _, ok := m.Renew(l.ID, "w1"); ok {
		t.Fatal("renew of completed lease succeeded")
	}
	c := m.Counters()
	if c.Granted != 1 || c.Renewed != 1 || c.Completed != 1 || c.Expired != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestLeaseExpiry: an unrenewed lease is harvested once, and the original
// holder's late complete is refused — the exactly-once race the fault
// injection e2e depends on.
func TestLeaseExpiry(t *testing.T) {
	clk := newTestClock()
	m := NewLeaseManager(5*time.Second, clk.Now)
	l1 := m.Grant("j1", "w1")
	m.Grant("j2", "w2")

	clk.Advance(3 * time.Second)
	m.Renew(l1.ID, "w1") // only j1's holder heartbeats

	clk.Advance(3 * time.Second) // t+6: j2's lease (deadline t+5) is dead
	exp := m.Expire(clk.Now())
	if len(exp) != 1 || exp[0].Job != "j2" {
		t.Fatalf("Expire harvested %+v, want just j2", exp)
	}
	if exp2 := m.Expire(clk.Now()); len(exp2) != 0 {
		t.Fatalf("second harvest returned %+v; expiry must be exactly-once", exp2)
	}
	if _, ok := m.Complete(exp[0].ID, "w2"); ok {
		t.Fatal("complete of an expired lease succeeded; stale results must be refused")
	}
	if _, ok := m.Complete(l1.ID, "w1"); !ok {
		t.Fatal("renewed lease refused its completion")
	}
	c := m.Counters()
	if c.Expired != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestLeaseHolderBinding: only the worker a lease was granted to may renew or
// complete it; a refusal leaves the lease live for its holder. IDs never
// repeat across managers, as they must not across coordinator restarts.
func TestLeaseHolderBinding(t *testing.T) {
	clk := newTestClock()
	m := NewLeaseManager(5*time.Second, clk.Now)
	l := m.Grant("j1", "w1")
	if _, ok := m.Renew(l.ID, "w2"); ok {
		t.Fatal("another worker renewed the lease")
	}
	if _, ok := m.Complete(l.ID, "w2"); ok {
		t.Fatal("another worker completed the lease")
	}
	clk.Advance(4 * time.Second)
	if _, ok := m.Renew(l.ID, "w1"); !ok {
		t.Fatal("holder's renewal refused after a foreign attempt")
	}
	clk.Advance(4 * time.Second) // t+8: alive only because the holder renewed
	if exp := m.Expire(clk.Now()); len(exp) != 0 {
		t.Fatalf("foreign attempts disturbed the lease: expired %+v", exp)
	}
	if _, ok := m.Complete(l.ID, "w1"); !ok {
		t.Fatal("holder's completion refused")
	}

	next := NewLeaseManager(5*time.Second, clk.Now).Grant("j2", "w1")
	if next.ID == l.ID {
		t.Fatalf("a new manager reissued lease ID %q", l.ID)
	}
	if a, b := NewRegistry(clk.Now).Register("x"), NewRegistry(clk.Now).Register("x"); a.ID == b.ID {
		t.Fatalf("two registries issued the same worker ID %q", a.ID)
	}
}

// TestRegistry: identity, liveness windows and drain state.
func TestRegistry(t *testing.T) {
	clk := newTestClock()
	r := NewRegistry(clk.Now)
	w1 := r.Register("alpha")
	w2 := r.Register("beta")
	if w1.ID == w2.ID {
		t.Fatalf("duplicate worker IDs %q", w1.ID)
	}
	if _, ok := r.Get(w1.ID); !ok {
		t.Fatal("registered worker not found")
	}
	if r.Touch("nope") || r.Drain("nope") {
		t.Fatal("unknown worker touched/drained")
	}

	clk.Advance(time.Minute)
	r.Touch(w1.ID) // only alpha stays live
	reg, live, draining := r.Counts(30 * time.Second)
	if reg != 2 || live != 1 || draining != 0 {
		t.Fatalf("Counts = (%d, %d, %d), want (2, 1, 0)", reg, live, draining)
	}

	if !r.Drain(w2.ID) {
		t.Fatal("drain refused")
	}
	if w, _ := r.Get(w2.ID); !w.Draining {
		t.Fatal("drained worker not flagged")
	}
	_, _, draining = r.Counts(30 * time.Second)
	if draining != 1 {
		t.Fatalf("draining = %d, want 1", draining)
	}

	r.RecordCompletion(w2.ID)
	if w, _ := r.Get(w2.ID); w.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", w.Completed)
	}
	// RecordCompletion also counts as liveness.
	_, live, _ = r.Counts(30 * time.Second)
	if live != 2 {
		t.Fatalf("live = %d after completion touch, want 2", live)
	}
}
