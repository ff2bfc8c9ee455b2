package fleet

import (
	"slices"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// memberBatch encodes k samples for member i in round r: each input starts
// with the sample's own number, 1000·r + 100·i + j, and the aux is the
// member index.
func memberBatch(i, r, k int) []netlink.Message {
	batch := make([]netlink.Message, k)
	for j := range batch {
		seq := float64(1000*r + 100*i + j)
		batch[j] = core.EncodeSample(core.Sample{Input: []float64{seq, 0.2, 0.3, 0.4}, Aux: []float64{float64(i)}})
	}
	return batch
}

// runRound hands every member its batch, in descending member order, then
// runs one aggregation round.
func (r *fleetRig) runRound(batches [][]netlink.Message) {
	members := r.ctrl.Members()
	for i := len(members) - 1; i >= 0; i-- {
		r.ctrl.handleMemberBatch(members[i], batches[i])
	}
	r.ctrl.aggregate()
}

// keeper keeps each round as it was handed over, against New's ownership
// rule, and looks at the kept round when the next one arrives.
type keeper struct {
	*fleetUser
	slice   []core.Sample // the previous round's slice
	samples []core.Sample // its samples, Input and Aux as handed over
	// what the keeper saw of the previous round during the next one
	sliceReused, inputsOverwritten bool
}

func (u *keeper) Adapt(batch []core.Sample) {
	if u.slice != nil {
		u.sliceReused = &u.slice[0] == &batch[0]
		u.inputsOverwritten = u.samples[0].Input[0] == batch[0].Input[0]
	}
	u.slice, u.samples = batch, slices.Clone(batch)
}

// TestKeptRoundIsOverwrittenByTheNext: a round is valid only until Adapt
// returns. An adapter that keeps one finds, during the next round, the same
// pool slice and the same payload memory holding the next round's samples.
func TestKeptRoundIsOverwrittenByTheNext(t *testing.T) {
	r := newFleetRig(t, 2, Config{BatchInterval: 10 * netsim.Millisecond}, nil)
	defer r.ctrl.Stop()
	k := &keeper{fleetUser: r.user}
	r.ctrl.adapter = k
	for round := 0; round < 2; round++ {
		r.runRound([][]netlink.Message{memberBatch(0, round, 3), memberBatch(1, round, 3)})
	}
	if !k.sliceReused || !k.inputsOverwritten {
		t.Errorf("the second round reused the pool slice: %v, the first round's payload memory: %v; want both",
			k.sliceReused, k.inputsOverwritten)
	}
	if got := k.samples[0].Input[0]; got != 1000 {
		t.Errorf("the second round starts with sample %v, want 1000", got)
	}
}

// TestPoolKeepsMemberOrderAcrossRounds: every round's pool holds exactly
// that round's samples, member by member in ascending index order and each
// member's in push order, however many each member sent and in whatever
// order the members delivered, and nothing of an earlier round.
func TestPoolKeepsMemberOrderAcrossRounds(t *testing.T) {
	const members, rounds = 3, 6
	r := newFleetRig(t, members, Config{BatchInterval: 10 * netsim.Millisecond}, nil)
	defer r.ctrl.Stop()
	var want [][]float64
	for round := 0; round < rounds; round++ {
		batches := make([][]netlink.Message, members)
		var seqs []float64
		for i := range batches {
			k := 1 + (round+2*i)%4
			batches[i] = memberBatch(i, round, k)
			for j := 0; j < k; j++ {
				seqs = append(seqs, float64(1000*round+100*i+j))
			}
		}
		want = append(want, seqs)
		r.runRound(batches)
	}
	if len(r.user.pools) != rounds {
		t.Fatalf("%d rounds reached the adapter, want %d", len(r.user.pools), rounds)
	}
	for round, pool := range r.user.pools {
		got := make([]float64, len(pool))
		for j, s := range pool {
			got[j] = s.Input[0]
			if mi := int(s.Aux[0]); mi != int(got[j])%1000/100 {
				t.Fatalf("round %d sample %d: aux names member %d, input member %d", round, j, mi, int(got[j])%1000/100)
			}
		}
		if !slices.Equal(got, want[round]) {
			t.Errorf("round %d pooled %v, want %v", round, got, want[round])
		}
	}
}

// flapUser keeps the correctness gate closed: its stability alternates
// between 1 and 2, never within tolerance of itself.
type flapUser struct {
	*fleetUser
	rounds int
}

func (u *flapUser) Adapt([]core.Sample) { u.rounds++ }
func (u *flapUser) Stability() float64  { return float64(1 + u.rounds%2) }

// TestWarmRoundZeroAllocs: once the pool, the member buffers and their
// arenas have grown, a round whose gate stays closed — every member's parse
// of its batch, the merge, Adapt and the gate — allocates nothing. A run is
// ten rounds, so an allocation every few rounds, such as a stability window
// that regrows, still counts.
func TestWarmRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard runs in the plain job")
	}
	const members = 4
	r := newFleetRig(t, members, Config{BatchInterval: 10 * netsim.Millisecond}, nil)
	defer r.ctrl.Stop()
	u := &flapUser{fleetUser: r.user}
	r.ctrl.adapter, r.ctrl.evaluator = u, u
	batches := make([][]netlink.Message, members)
	for i := range batches {
		batches[i] = memberBatch(i, 0, 16)
	}
	r.runRound(batches)
	tenRounds := func() {
		for range 10 {
			r.runRound(batches)
		}
	}
	if allocs := testing.AllocsPerRun(100, tenRounds); allocs != 0 {
		t.Errorf("ten warm rounds of %d members allocate %.2f objects, want 0", members, allocs)
	}
	if st := r.ctrl.Stats(); st.Aggregations != 1011 || st.Samples != 1011*members*16 || st.Converged != 0 {
		t.Errorf("%d rounds of %d samples, %d converged; want 1011 rounds of %d samples and a closed gate",
			st.Aggregations, st.Samples, st.Converged, members*16)
	}
}
