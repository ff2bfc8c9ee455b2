package nn

import (
	"runtime"
	"sync"
)

// splitMACs is the least work, in multiply-adds (four-sample groups × MACs
// per sample), at which InferBatch spreads its groups over the cores. Below
// it the hand-off costs more than a second core gives back. It splits the
// fleet's bloated 4→2048→1 user model at the necessity check's 64-sample
// blocks (16 groups × 10,240 MACs) and no Aurora-sized call (16 × 1,488);
// DESIGN.md §4k "Split across cores" has the measurement.
const splitMACs = 1 << 16

// laneScratch is one worker's four-sample inference scratch: the two
// activation buffers it ping-pongs between and tanhLanes's per-group mask.
type laneScratch struct {
	vec  [2][]lanes
	left []uint8
}

// share is one helper's part of a split InferBatch: the whole groups xs,
// their outputs ys and the worker's scratch s; n.done hears when ys is
// written.
type share struct {
	n  *Network
	xs [][]float64
	ys []float64
	s  *laneScratch
}

// helpers are the package's parked goroutines that run shares. They start
// on the first split that needs them, never more than a split has asked
// for, and take shares as values over one channel, so a split allocates
// nothing. Shares are pure computation on memory no other worker touches, so
// any helper may run any network's share. Helpers never exit: each holds only
// its stack, and there is at most one per core.
var helpers struct {
	mu      sync.Mutex
	started int
	shares  chan share
}

func helper(shares <-chan share) {
	for sh := range shares {
		sh.n.inferGroups(sh.xs, sh.ys, sh.s)
		sh.n.done.Done()
	}
}

// startHelpers makes sure at least k helpers are parked and returns the
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
			left: make([]uint8, w),
		})
	}
	return n.work[:k]
}

// split hands worker i of len(work) the contiguous groups [i·g/k, (i+1)·g/k)
// of xs's g = groups four-sample groups, for every i but 0, and returns how
// many groups are the caller's. Each worker writes only its own samples' part
// of ys and only its own scratch, and each sample goes through the kernels it
// goes through unsplit, so the outputs are the same bits at any GOMAXPROCS.
// The caller waits on n.done before it reads ys.
func (n *Network) split(xs [][]float64, ys []float64, groups int, work []laneScratch) int {
	k := len(work)
	if k == 1 {
		return groups
	}
	os := n.OutputSize()
	shares := startHelpers(k - 1)
	n.done.Add(k - 1)
	for i := 1; i < k; i++ {
		lo, hi := 4*(i*groups/k), 4*((i+1)*groups/k)
		shares <- share{n: n, xs: xs[lo:hi], ys: ys[lo*os : hi*os], s: &work[i]}
	}
	return groups / k
}
