package sim

import (
	"fmt"
	"testing"
)

// nopAction is a placeholder payload for queue-level tests.
type nopAction struct{}

func (nopAction) Do() {}

// driveQueues interprets program as a push/pop script and drives a
// calendar queue and the reference heap side by side, failing at the
// first divergence in length, peek time or popped (at, seq). Opcodes
// are chosen to hit the calendar's edge geometry: equal-timestamp FIFO
// runs, bucket-boundary times, horizon-exact and far-future pushes
// (overflow), and drain/refill cycles. Pushes respect the engine
// contract (never before the last popped timestamp).
func driveQueues(program []byte, slotBits, widthBits uint) error {
	wheel := newCalendarQueue(slotBits, widthBits)
	heap := &heapQueue{}
	width := Time(1) << widthBits
	span := Time(1) << (widthBits + slotBits)
	var now Time
	var seq uint64

	push := func(at Time) {
		e := event{at: at, seq: seq, act: nopAction{}}
		seq++
		wheel.push(e)
		heap.push(e)
	}
	pop := func() error {
		if wheel.len() != heap.len() {
			return fmt.Errorf("len: wheel %d, heap %d", wheel.len(), heap.len())
		}
		if pw, ph := wheel.peekTime(), heap.peekTime(); pw != ph {
			return fmt.Errorf("peekTime: wheel %v, heap %v", pw, ph)
		}
		if heap.len() == 0 {
			return nil
		}
		w, h := wheel.pop(), heap.pop()
		if w.at != h.at || w.seq != h.seq {
			return fmt.Errorf("pop: wheel (%v, %d), heap (%v, %d)", w.at, w.seq, h.at, h.seq)
		}
		now = w.at
		return nil
	}

	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i]%8, Time(program[i+1])
		switch op {
		case 0: // near future, inside the window
			push(now + arg)
		case 1: // equal timestamps — FIFO among them
			push(now)
		case 2: // bucket boundary at/above now
			push((now+width-1)/width*width + arg*width)
		case 3: // horizon-exact: first time outside the window
			push(now + span)
		case 4: // far future — overflow territory
			push(now + span + arg*977)
		case 5: // medium spread, crosses several buckets
			push(now + arg*arg)
		case 6:
			if err := pop(); err != nil {
				return err
			}
		case 7: // drain burst
			for j := 0; j < int(arg); j++ {
				if err := pop(); err != nil {
					return err
				}
			}
		}
	}
	for heap.len() > 0 {
		if err := pop(); err != nil {
			return err
		}
	}
	if wheel.len() != 0 {
		return fmt.Errorf("wheel holds %d events after full drain", wheel.len())
	}
	return nil
}

// TestEventQueueDifferential is the scheduler equivalence property
// test: randomized adversarial programs through every geometry from a
// tiny 8-bucket wheel (constant wrapping and overflow) to the default.
func TestEventQueueDifferential(t *testing.T) {
	geometries := []struct{ slotBits, widthBits uint }{
		{3, 0}, {3, 2}, {4, 1}, {6, 3}, {defaultSlotBits, defaultWidthBits},
	}
	r := NewRNG(42)
	for _, g := range geometries {
		for trial := 0; trial < 40; trial++ {
			program := make([]byte, 2048)
			for i := range program {
				program[i] = byte(r.Intn(256))
			}
			if err := driveQueues(program, g.slotBits, g.widthBits); err != nil {
				t.Fatalf("geometry %d/%d trial %d: %v", g.slotBits, g.widthBits, trial, err)
			}
		}
	}
}

// TestEngineSchedulersEquivalent runs the same self-sustaining random
// workload through a calendar engine and a heap engine and compares
// the full dispatch sequence — the engine-level view of the
// differential property, including nested scheduling from inside
// events.
func TestEngineSchedulersEquivalent(t *testing.T) {
	run := func(opts ...EngineOption) []Time {
		e := NewEngine(opts...)
		r := NewRNG(7)
		var fired []Time
		var burst func()
		burst = func() {
			fired = append(fired, e.Now())
			if len(fired) >= 20000 {
				return
			}
			for i, n := 0, r.Intn(3); i < n; i++ {
				switch r.Intn(4) {
				case 0:
					e.Schedule(0, burst) // same-timestamp FIFO
				case 1:
					e.Schedule(Time(r.Intn(64)), burst)
				case 2:
					e.Schedule(Time(r.Intn(100000)), burst)
				default:
					e.Schedule(Time(r.Intn(1000)), burst)
				}
			}
		}
		for i := 0; i < 64; i++ {
			e.Schedule(Time(r.Intn(500)), burst)
		}
		e.Run(Forever)
		return fired
	}
	calendar := run()
	heap := run(WithScheduler(SchedulerHeap))
	if len(calendar) != len(heap) {
		t.Fatalf("dispatched %d events on calendar, %d on heap", len(calendar), len(heap))
	}
	for i := range calendar {
		if calendar[i] != heap[i] {
			t.Fatalf("dispatch %d: calendar at %v, heap at %v", i, calendar[i], heap[i])
		}
	}
}

// TestCalendarHorizonParking reproduces the cursor-parked-ahead case:
// Run with a horizon before the next pending event leaves the wheel
// cursor beyond the engine clock; a later push behind the cursor must
// still dispatch in order (it routes through the overflow internally).
func TestCalendarHorizonParking(t *testing.T) {
	e := NewEngine()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(100000, rec) // far ahead
	e.Run(10)         // peeks, parks the cursor, dispatches nothing
	if len(order) != 0 {
		t.Fatalf("dispatched %d events before the horizon", len(order))
	}
	e.At(5000, rec) // behind the parked cursor, after the clock
	e.At(50, rec)
	e.Run(Forever)
	want := []Time{50, 5000, 100000}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
