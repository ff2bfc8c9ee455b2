package netsim

// Ticker runs a step again and again in virtual time, on the contract the
// package doc states. Chains are told apart by due time: an event runs the
// step only when it fires at the time the live chain is due. Hence the one
// edge case: after Stop→Start, a stale event of the old chain that fires at
// exactly the new chain's due time runs the step in its place, under the old
// event's sequence number.
type Ticker struct {
	eng  *Engine
	step func() (next Time, more bool)
	fire func() // t.run, bound once
	due  Time   // when the live chain's step runs next; stepping while it runs
	live bool
}

// stepping is the due time while the step runs: no event can match it, and a
// Start inside the step (after a Stop) replaces it.
const stepping = Time(-1)

// NewTicker returns a stopped ticker that runs step on eng.
func NewTicker(eng *Engine, step func() (next Time, more bool)) *Ticker {
	t := &Ticker{eng: eng, step: step}
	t.fire = t.run
	return t
}

// Start begins a chain whose first step runs d from now (a negative d runs
// it now, as After does). On a live chain it does nothing.
func (t *Ticker) Start(d Time) {
	if t.live {
		return
	}
	t.live = true
	t.arm(d)
}

// Stop ends the live chain; its pending event runs nothing. From inside the
// step it ends the chain too, whatever the step returns.
func (t *Ticker) Stop() { t.live = false }

// Running reports whether a chain is live. A nil ticker is not running.
func (t *Ticker) Running() bool { return t != nil && t.live }

func (t *Ticker) arm(d Time) {
	t.due = t.eng.now + max(d, 0)
	t.eng.After(d, t.fire)
}

func (t *Ticker) run() {
	if !t.live || t.eng.now != t.due {
		return // an event of a stopped chain
	}
	t.due = stepping
	next, more := t.step()
	switch {
	case !t.live || t.due != stepping:
		// Stopped inside the step, or stopped and started again: the new
		// chain, if any, is armed already.
	case !more:
		t.live = false
	default:
		t.arm(next)
	}
}
