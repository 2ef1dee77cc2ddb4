package fleet

import (
	"testing"
	"time"
)

// testClock is a hand-advanced time source for deterministic aging tests.
type testClock struct{ now time.Time }

func newTestClock() *testClock {
	return &testClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *testClock) Now() time.Time          { return c.now }
func (c *testClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// enqueue admits one item as a group of one.
func enqueue(s *Scheduler[string], v string, pri Priority, client string) bool {
	return s.TryEnqueueAll([]string{v}, []Priority{pri}, client)
}

func drain(t *testing.T, s *Scheduler[string], n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		v, ok := s.TryDequeue()
		if !ok {
			t.Fatalf("TryDequeue %d/%d: queue empty, got %v", i+1, n, out)
		}
		out = append(out, v)
	}
	return out
}

func wantOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dequeued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v (diverges at %d)", got, want, i)
		}
	}
}

// TestParsePriority pins the wire vocabulary: the three classes, the empty
// default, and a hard error for anything else.
func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"", PriorityNormal, true},
		{"low", PriorityLow, true},
		{"normal", PriorityNormal, true},
		{"high", PriorityHigh, true},
		{"urgent", 0, false},
		{"HIGH", 0, false},
		{"0", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePriority(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePriority(%q) accepted; want error", c.in)
		}
	}
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		back, err := ParsePriority(p.String())
		if err != nil || back != p {
			t.Errorf("String/Parse round trip broke for %v: %v, %v", p, back, err)
		}
	}
}

// TestSchedulerSingleClientFIFO pins the compatibility contract: one client
// submitting at one priority sees exactly the FIFO the scheduler replaced.
func TestSchedulerSingleClientFIFO(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{})
	for _, v := range []string{"a", "b", "c", "d", "e"} {
		if !enqueue(s, v, PriorityNormal, "cli") {
			t.Fatalf("enqueue %q rejected", v)
		}
	}
	wantOrder(t, drain(t, s, 5), []string{"a", "b", "c", "d", "e"})
}

// TestSchedulerPriorityOrdering: higher classes drain first regardless of
// arrival order; FIFO within a class.
func TestSchedulerPriorityOrdering(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Clock: newTestClock().Now})
	enqueue(s, "low1", PriorityLow, "cli")
	enqueue(s, "norm1", PriorityNormal, "cli")
	enqueue(s, "high1", PriorityHigh, "cli")
	enqueue(s, "low2", PriorityLow, "cli")
	enqueue(s, "high2", PriorityHigh, "cli")
	enqueue(s, "norm2", PriorityNormal, "cli")
	wantOrder(t, drain(t, s, 6),
		[]string{"high1", "high2", "norm1", "norm2", "low1", "low2"})
}

// TestSchedulerAgingPromotion: a low job under a steady high-priority storm
// is promoted one class per AgingStep and gets served instead of starving.
func TestSchedulerAgingPromotion(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{AgingStep: time.Second, Clock: clk.Now})
	enqueue(s, "victim", PriorityLow, "slow")

	served := -1
	for round := 1; round <= 6; round++ {
		clk.Advance(time.Second)
		enqueue(s, "storm", PriorityHigh, "fast")
		if v, ok := s.TryDequeue(); !ok {
			t.Fatalf("round %d: queue empty", round)
		} else if v == "victim" {
			served = round
			break
		}
	}
	// Two steps promote low → high; WRR admits the victim's client within a
	// round or two of that. Without aging it would never be served here.
	if served < 0 {
		t.Fatalf("low job starved through 6 rounds of high-priority storm")
	}
	if served < 3 {
		t.Fatalf("low job served in round %d, before it could have aged to high", served)
	}
}

// TestSchedulerAgingDisabled: a negative AgingStep turns promotion off.
func TestSchedulerAgingDisabled(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{AgingStep: -1, Clock: clk.Now})
	enqueue(s, "low", PriorityLow, "cli")
	clk.Advance(24 * time.Hour)
	enqueue(s, "high", PriorityHigh, "cli")
	wantOrder(t, drain(t, s, 2), []string{"high", "low"})
}

// TestSchedulerFairness: three clients with queued backlogs are served
// round-robin — no client waits for another's backlog to drain.
func TestSchedulerFairness(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Clock: newTestClock().Now})
	for _, cli := range []string{"a", "b", "c"} {
		for i := 0; i < 3; i++ {
			enqueue(s, cli, PriorityNormal, cli)
		}
	}
	wantOrder(t, drain(t, s, 9),
		[]string{"a", "b", "c", "a", "b", "c", "a", "b", "c"})
}

// TestSchedulerCapacity: TryEnqueueAll bounds the queue; EnqueueFront (the
// lease-expiry path) deliberately does not, and its item is served next.
func TestSchedulerCapacity(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{Capacity: 2, Clock: clk.Now})
	if !enqueue(s, "a", PriorityNormal, "cli") || !enqueue(s, "b", PriorityNormal, "cli") {
		t.Fatal("enqueue under capacity rejected")
	}
	if enqueue(s, "c", PriorityNormal, "cli") {
		t.Fatal("enqueue beyond capacity accepted")
	}
	s.EnqueueFront("retry", PriorityNormal, "cli", clk.Now())
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d after front push past capacity, want 3", got)
	}
	wantOrder(t, drain(t, s, 3), []string{"retry", "a", "b"})
}

// TestSchedulerEnqueueFrontCrossClient: a re-enqueued job is the very next
// dequeue even when other clients have queued work.
func TestSchedulerEnqueueFrontCrossClient(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{Clock: clk.Now})
	enqueue(s, "other1", PriorityNormal, "other")
	enqueue(s, "other2", PriorityNormal, "other")
	s.EnqueueFront("retry", PriorityNormal, "victim", clk.Now())
	if v, ok := s.TryDequeue(); !ok || v != "retry" {
		t.Fatalf("first dequeue after EnqueueFront = %q, want retry", v)
	}
}

// TestSchedulerWakeChan: a WakeChan snapshot taken on an empty queue fires
// at the next enqueue, and Close fires it and refuses further work.
func TestSchedulerWakeChan(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{})
	wake := s.WakeChan()
	if _, ok := s.TryDequeue(); ok {
		t.Fatal("empty scheduler dequeued an item")
	}
	enqueue(s, "x", PriorityHigh, "cli")
	select {
	case <-wake:
	default:
		t.Fatal("WakeChan did not fire on enqueue")
	}
	if v, ok := s.TryDequeue(); !ok || v != "x" {
		t.Fatalf("TryDequeue = %q, %v after wake", v, ok)
	}

	wake = s.WakeChan()
	s.Close()
	select {
	case <-wake:
	default:
		t.Fatal("WakeChan did not fire on Close")
	}
	if enqueue(s, "y", PriorityNormal, "cli") {
		t.Fatal("enqueue accepted after Close")
	}
}

// TestSchedulerDepths: the observability snapshot counts by class and client.
func TestSchedulerDepths(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Clock: newTestClock().Now})
	enqueue(s, "1", PriorityHigh, "a")
	enqueue(s, "2", PriorityNormal, "a")
	enqueue(s, "3", PriorityNormal, "b")
	enqueue(s, "4", PriorityLow, "b")
	d := s.Depths()
	if d.Total != 4 {
		t.Fatalf("Total = %d, want 4", d.Total)
	}
	if d.ByClass["high"] != 1 || d.ByClass["normal"] != 2 || d.ByClass["low"] != 1 {
		t.Fatalf("ByClass = %v", d.ByClass)
	}
	if d.ByClient["a"] != 2 || d.ByClient["b"] != 2 {
		t.Fatalf("ByClient = %v", d.ByClient)
	}
}

// TestSchedulerTryEnqueueAll pins the group admission contract: a batch
// lands whole (per-item classes respected, FIFO within a class) or not at
// all — a batch that would exceed capacity leaves the queue untouched, and
// mismatched inputs or a closed scheduler admit nothing.
func TestSchedulerTryEnqueueAll(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Capacity: 4, Clock: newTestClock().Now})
	if !s.TryEnqueueAll([]string{"a", "b", "c"},
		[]Priority{PriorityNormal, PriorityHigh, PriorityNormal}, "cli") {
		t.Fatal("in-capacity batch rejected")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d after batch, want 3", s.Len())
	}

	// 2 more items would exceed capacity 4: nothing may land.
	if s.TryEnqueueAll([]string{"d", "e"}, []Priority{PriorityLow, PriorityLow}, "cli") {
		t.Fatal("over-capacity batch accepted")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d after rejected batch, want 3 (partial admission)", s.Len())
	}

	// Mismatched classes are a caller bug, refused outright.
	if s.TryEnqueueAll([]string{"d", "e"}, []Priority{PriorityLow}, "cli") {
		t.Fatal("mismatched vs/pris accepted")
	}

	// A batch that exactly fills the queue is fine, and per-item classes hold:
	// the high member drains before the normals, which keep submission order.
	if !s.TryEnqueueAll([]string{"d"}, []Priority{PriorityHigh, PriorityHigh}[:1], "cli") {
		t.Fatal("exact-fit batch rejected")
	}
	wantOrder(t, drain(t, s, 4), []string{"b", "d", "a", "c"})

	s.Close()
	if s.TryEnqueueAll([]string{"z"}, []Priority{PriorityNormal}, "cli") {
		t.Fatal("batch accepted after Close")
	}
}

// TestSchedulerAgingStepAccessor: the accessor reports the defaulted quantum
// and the disabled state, matching what /statsz publishes.
func TestSchedulerAgingStepAccessor(t *testing.T) {
	if got := NewScheduler[string](SchedulerConfig{}).AgingStep(); got != DefaultAgingStep {
		t.Errorf("default AgingStep = %v, want %v", got, DefaultAgingStep)
	}
	if got := NewScheduler[string](SchedulerConfig{AgingStep: 5 * time.Second}).AgingStep(); got != 5*time.Second {
		t.Errorf("AgingStep = %v, want 5s", got)
	}
	if got := NewScheduler[string](SchedulerConfig{AgingStep: -1}).AgingStep(); got > 0 {
		t.Errorf("disabled AgingStep = %v, want non-positive", got)
	}
}
