// Quickstart: the full LiteFlow lifecycle in one small program.
//
//  1. Train a float NN in "userspace".
//  2. Quantize it and generate a kernel snapshot module (integer-only).
//  3. Register the snapshot with the LiteFlow core (lf_register_model).
//  4. Query it through the inference router (lf_query_model).
//  5. Tune the userspace model, deliver batches over the netlink channel,
//     and watch the service install an updated snapshot once the fidelity
//     gate trips — while the old snapshot keeps serving.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	liteflow "github.com/liteflow-sim/liteflow"
)

// user implements the three userspace-service interfaces: the embedded
// network answers freezing and evaluation (with the optional block form,
// BatchEvaluator), so a user writes only Stability and Adapt.
type user struct {
	*liteflow.Network
	loss float64
}

func (u *user) Stability() float64 { return u.loss }

func (u *user) Adapt(batch []liteflow.Sample) {
	// A real adapter would train here; the quickstart just notes receipt
	// and pretends training converged.
	fmt.Printf("  slow path: adapted on %d samples\n", len(batch))
	u.loss = 0.01
}

func main() {
	// A simulated world: one virtual clock, one 4-core host CPU.
	eng := liteflow.NewEngine()
	cpu := liteflow.NewHostCPU(eng, 4)
	costs := liteflow.DefaultCosts()

	// 1. A small userspace model (4 inputs → 1 output).
	net := liteflow.NewNetwork([]int{4, 8, 1},
		[]liteflow.Activation{liteflow.Tanh, liteflow.Sigmoid}, 42)

	// 2. Quantize + generate the snapshot module.
	snap, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated snapshot %q: %d bytes of integer-only source\n",
		snap.Name, len(snap.Source()))

	// 3. The kernel core module.
	cfg := liteflow.DefaultConfig()
	cfg.OutMin, cfg.OutMax = 0, 1 // sigmoid output range
	lf := liteflow.NewCore(eng, cpu, costs, cfg)
	if _, err := lf.RegisterModel(snap); err != nil {
		log.Fatal(err)
	}

	// 4. Fast-path inference for flow 7 (pinned by the flow cache).
	input := snap.Program.QuantizeInput([]float64{0.1, 0.2, 0.3, 0.4}, nil)
	output := make([]int64, 1)
	if err := lf.QueryModel(7, input, output); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fast path: flow 7 → model output %.3f (integer %d at scale %d)\n",
		float64(output[0])/float64(snap.Program.OutputScale), output[0], snap.Program.OutputScale)

	// 5. The slow path: batched kernel→user delivery plus snapshot updates.
	u := &user{Network: net.Clone(), loss: 1}
	// Diverge the userspace model so an update becomes necessary.
	u.Layers[1].B[0] += 2
	ch := liteflow.NewNetlinkChannel(eng, cpu, costs, nil)
	svc := liteflow.NewSlowPath(lf, ch, u, u, u)
	svc.OnUpdate = func(m *liteflow.Model) {
		fmt.Printf("  snapshot update installed: %s (router switched roles)\n", m.Name)
	}
	svc.Start(100 * liteflow.Millisecond) // the paper's batch interval T

	// Kernel collector: push a training sample every 10 ms.
	var collect func()
	n := 0
	collect = func() {
		if n >= 100 {
			return
		}
		n++
		ch.Push(liteflow.EncodeSample(liteflow.Sample{
			Input: []float64{0.1 * float64(n%10), 0.2, 0.3, 0.4},
			At:    eng.Now(),
		}))
		eng.After(10*liteflow.Millisecond, collect)
	}
	eng.After(0, collect)

	eng.RunUntil(2 * liteflow.Second)
	ch.StopBatching()
	lf.StopSweeper()

	st := lf.Stats()
	ss := svc.Stats()
	fmt.Printf("\ncore: %d queries, %d installs, %d role switches\n",
		st.Queries, st.Installs, st.Switches)
	fmt.Printf("service: %d batches, %d fidelity checks, %d updates (min fidelity loss %.3f)\n",
		ss.Batches, ss.FidelityChecks, ss.Updates, ss.LastFidelity)
	fmt.Printf("CPU: %s\n", cpu.Report())

	// Flow 7 is still served consistently; new flows use the new snapshot.
	if err := lf.QueryModel(7, input, output); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow 7 after update (flow-consistent): %.3f\n",
		float64(output[0])/float64(snap.Program.OutputScale))
	if err := lf.QueryModel(8, input, output); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new flow 8 (updated snapshot):        %.3f\n",
		float64(output[0])/float64(snap.Program.OutputScale))
}
