package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// splitMACs is the least work, in multiply-adds (four-sample groups × MACs
// per sample), at which InferBatch spreads its groups over the cores. Below
// it the hand-off costs more than a second core gives back. It splits the
// fleet's bloated 4→2048→1 user model at the necessity check's 64-sample
// blocks (16 groups × 10,240 MACs) and no Aurora-sized call (16 × 1,488);
// DESIGN.md §4k "Split across cores" has the measurement.
const splitMACs = 1 << 16

// laneScratch is one worker's four-sample inference scratch: the two
// activation buffers it ping-pongs between and tanhLanes's list.
type laneScratch struct {
	vec  [2][]lanes
	left []uint32
}

// batch is the InferBatch call in progress on a Network. The caller sets xs
// and ys (and clears them on return, so the Network keeps no caller's
// buffers), then publishes the call in left: its generation in the high 32
// bits, the groups nobody has claimed yet in the low 32. A worker claims a
// group by taking one off left, so each group runs once, and a share of
// another generation (a call that has returned) claims nothing. done counts
// the groups helpers have run; the caller waits for it to reach those it did
// not run itself.
type batch struct {
	xs   [][]float64
	ys   []float64
	gen  uint32 // only the caller reads or writes it
	left atomic.Uint64
	done atomic.Int64
}

// share offers a helper a part of n's call gen, run on the scratch s.
type share struct {
	n   *Network
	gen uint32
	s   *laneScratch
}

// run takes groups of the call from its counter until none is left. A share
// that comes too late claims nothing and touches nothing else: only a claim
// lets it read the call's xs and ys or write its scratch, and the call cannot
// return while a claimed group runs.
func (sh share) run() {
	if ran := sh.n.claimGroups(sh.gen, sh.s); ran > 0 {
		sh.n.call.done.Add(int64(ran))
	}
}

// helpers are the package's parked goroutines that run shares. They start
// on the first split that needs them, never more than a split has asked
// for, and take shares as values over one unbuffered channel, so a split
// allocates nothing. Any helper may run any network's share. Helpers never
// exit: each holds only its stack, and there is at most one per core.
var helpers struct {
	mu      sync.Mutex
	started int
	shares  chan share
}

func helper(shares <-chan share) {
	for sh := range shares {
		sh.run()
	}
}

// startHelpers makes sure at least k helpers are started and returns the
// channel they read.
func startHelpers(k int) chan<- share {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	if helpers.shares == nil {
		helpers.shares = make(chan share)
	}
	for ; helpers.started < k; helpers.started++ {
		go helper(helpers.shares)
	}
	return helpers.shares
}

// workers returns how many workers share a call of groups four-sample
// groups: one below splitMACs or at GOMAXPROCS 1, else one per core and never
// more than one per group.
func (n *Network) workers(groups int) int {
	if groups < 2 || groups*n.MACs() < splitMACs {
		return 1
	}
	return min(groups, runtime.GOMAXPROCS(0))
}

// scratch4 returns the scratch of k workers, allocating what no earlier
// call needed.
func (n *Network) scratch4(k int) []laneScratch {
	for len(n.work) < k {
		w := n.maxWidth()
		n.work = append(n.work, laneScratch{
			vec:  [2][]lanes{make([]lanes, w), make([]lanes, w)},
			left: make([]uint32, w),
		})
	}
	return n.work[:k]
}

// inferGroups is InferBatch once the shapes are checked. It publishes the
// call, offers work[i] to each helper parked at that moment (a busy one is
// not waited for), then takes four-sample groups from the counter like any
// helper and runs the len(xs)%4 remainder. It waits only for groups a helper
// has claimed, never for a helper to wake. Each group goes through the same
// kernels whoever claims it and is written by that worker on its own
// scratch, so the outputs are the same bits at any GOMAXPROCS.
func (n *Network) inferGroups(xs [][]float64, ys []float64, work []laneScratch) {
	c := &n.call
	groups := len(xs) / 4
	c.xs, c.ys = xs, ys
	c.gen++
	c.done.Store(0)
	c.left.Store(uint64(c.gen)<<32 | uint64(groups))
	if len(work) > 1 {
		shares := startHelpers(len(work) - 1)
		for i := 1; i < len(work); i++ {
			select {
			case shares <- share{n, c.gen, &work[i]}:
			default:
			}
		}
	}
	mine := n.claimGroups(c.gen, &work[0])
	os := n.OutputSize()
	for k := 4 * groups; k < len(xs); k++ {
		n.infer1(xs[k], ys[k*os:(k+1)*os])
	}
	for c.done.Load() != int64(groups-mine) {
		runtime.Gosched()
	}
	c.xs, c.ys = nil, nil
}

// claimGroups runs groups of n's call gen on the scratch s, claiming
// them one at a time, until none is left or the call is no longer gen, and
// returns how many it ran.
func (n *Network) claimGroups(gen uint32, s *laneScratch) int {
	c := &n.call
	ran := 0
	for {
		st := c.left.Load()
		if uint32(st>>32) != gen || uint32(st) == 0 {
			return ran
		}
		if !c.left.CompareAndSwap(st, st-1) {
			continue
		}
		k, os := 4*int(uint32(st)-1), n.OutputSize()
		n.infer4(c.xs[k:k+4], c.ys[k*os:(k+4)*os], s)
		ran++
	}
}
