package netsim

import (
	"slices"
	"testing"
)

// TestTicker drives one ticker per case and records the times its step ran.
// The step is handed the ticker and its 1-based run count; drive starts the
// chain and schedules whatever the case does around it; the engine then runs
// to until.
func TestTicker(t *testing.T) {
	every10 := func(*Ticker, int) (Time, bool) { return 10, true }
	for _, tc := range []struct {
		name    string
		step    func(tk *Ticker, n int) (Time, bool)
		drive   func(e *Engine, tk *Ticker)
		until   Time
		want    []Time
		pending int // events left in the engine at until
	}{
		{
			name:  "step returns stop",
			step:  func(_ *Ticker, n int) (Time, bool) { return 10, n < 3 },
			drive: func(_ *Engine, tk *Ticker) { tk.Start(10) },
			until: 100, want: []Time{10, 20, 30},
		},
		{
			name: "Stop from inside the step",
			step: func(tk *Ticker, n int) (Time, bool) {
				if n == 2 {
					tk.Stop()
				}
				return 10, true
			},
			drive: func(_ *Engine, tk *Ticker) { tk.Start(10) },
			until: 100, want: []Time{10, 20},
		},
		{
			name: "Stop then Start from inside the step",
			step: func(tk *Ticker, n int) (Time, bool) {
				if n == 2 {
					tk.Stop()
					tk.Start(5)
				}
				return 10, n < 4
			},
			drive: func(_ *Engine, tk *Ticker) { tk.Start(10) },
			until: 100, want: []Time{10, 20, 25, 35},
		},
		{
			name: "Start on a live chain does nothing",
			step: every10,
			drive: func(e *Engine, tk *Ticker) {
				tk.Start(10)
				e.At(5, func() { tk.Start(1) })
			},
			until: 35, want: []Time{10, 20, 30}, pending: 1,
		},
		{
			name: "Stop→Start with the old event pending",
			step: every10,
			drive: func(e *Engine, tk *Ticker) {
				tk.Start(10)
				e.At(15, func() { tk.Stop(); tk.Start(10) })
			},
			until: 60, want: []Time{10, 25, 35, 45, 55}, pending: 1,
		},
		{
			// The documented edge case: the stale event at 20 fires at the
			// new chain's due time and runs the step; the new chain's own
			// event then finds the chain due at 30 and runs nothing.
			name: "Stop→Start onto the stale event's time",
			step: every10,
			drive: func(e *Engine, tk *Ticker) {
				tk.Start(10)
				e.At(15, func() { tk.Stop(); tk.Start(5) })
			},
			until: 55, want: []Time{10, 20, 30, 40, 50}, pending: 1,
		},
		{
			name:  "Stop then Start after the stale event fired",
			step:  every10,
			drive: func(e *Engine, tk *Ticker) { tk.Start(10); e.At(15, tk.Stop); e.At(25, func() { tk.Start(10) }) },
			until: 50, want: []Time{10, 35, 45}, pending: 1,
		},
		{
			name:  "variable delays",
			step:  func(_ *Ticker, n int) (Time, bool) { return Time(n), n < 5 },
			drive: func(_ *Engine, tk *Ticker) { tk.Start(1) },
			until: 100, want: []Time{1, 2, 4, 7, 11},
		},
		{
			name:  "negative first delay runs now",
			step:  func(_ *Ticker, n int) (Time, bool) { return 3, n < 2 },
			drive: func(_ *Engine, tk *Ticker) { tk.Start(-4) },
			until: 100, want: []Time{0, 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var got []Time
			var tk *Ticker
			tk = NewTicker(e, func() (Time, bool) {
				got = append(got, e.Now())
				return tc.step(tk, len(got))
			})
			tc.drive(e, tk)
			e.RunUntil(tc.until)
			if !slices.Equal(got, tc.want) {
				t.Errorf("steps ran at %v, want %v", got, tc.want)
			}
			if n := e.Pending(); n != tc.pending {
				t.Errorf("%d events pending at %d, want %d", n, tc.until, tc.pending)
			}
			if tk.Running() != (tc.pending > 0) {
				t.Errorf("Running() = %v with %d events pending", tk.Running(), tc.pending)
			}
		})
	}
}

func TestTickerStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates in the event loop")
	}
	e := NewEngine()
	steps := 0
	next := Time(1)
	tk := NewTicker(e, func() (Time, bool) {
		steps++
		next = next%7 + 1 // variable delays, as a monitor interval has
		return next, true
	})
	tk.Start(1)
	e.RunUntil(1000) // warm: the heap is sized
	before := steps
	deadline := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		deadline += 8
		e.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Errorf("a step allocates %.1f allocs, want 0", allocs)
	}
	if steps-before < 100 {
		t.Fatalf("%d steps ran in the measured runs, want at least one per run", steps-before)
	}
}
