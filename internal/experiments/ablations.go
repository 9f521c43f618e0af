package experiments

import (
	"context"

	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
	"odbgc/internal/storage"
)

// Ablations studies the reproduction's own design choices, beyond the
// paper's figures: partition-selection policy, pointer-fixup cost model,
// buffer size relative to partitions (§3.1's discussion), and Reorg2's
// declustering batch size.
func (r *Runner) Ablations(ctx context.Context) (*Report, error) {
	rep := &Report{
		ID:    "ablations",
		Title: "Design-choice ablations (selection, fixups, buffer, declustering)",
	}
	t := &metrics.Table{Header: []string{"study", "variant", "metric", "value"}}

	opts := r.opts
	traces, err := r.traces.get(ctx, opts.Connectivity, opts.SeedBase, 1)
	if err != nil {
		return nil, err
	}
	tr := traces[0]

	// 1. Partition selection at a fixed rate: reclaimed bytes.
	for _, selName := range []string{"updated-pointer", "hybrid", "round-robin", "random", "oracle-max-garbage"} {
		selName := selName
		pol, err := core.NewFixedRate(300)
		if err != nil {
			return nil, err
		}
		sel, err := gc.NewSelectionPolicy(selName, opts.SeedBase)
		if err != nil {
			return nil, err
		}
		res, err := r.runOne(ctx, tr, sim.Config{Policy: pol, Selection: sel})
		if err != nil {
			return nil, err
		}
		t.AddRow("selection@fixed(300)", selName, "reclaimed MB",
			fmt.Sprintf("%.2f", float64(res.TotalReclaimed)/(1<<20)))
	}

	// 2. Fixup cost model: GC I/O per collection.
	for _, fixups := range []bool{false, true} {
		name := "logical-oids"
		if fixups {
			name = "physical-fixups"
		}
		pol, err := core.NewFixedRate(300)
		if err != nil {
			return nil, err
		}
		res, err := r.runOne(ctx, tr, sim.Config{Policy: pol, PhysicalFixups: fixups})
		if err != nil {
			return nil, err
		}
		per := 0.0
		if n := len(res.Collections); n > 0 {
			per = float64(res.Final.GCIO()) / float64(n)
		}
		t.AddRow("fixup-model", name, "GC I/O per collection", fmt.Sprintf("%.1f", per))
	}

	// 3. Buffer size vs partition size (§3.1): total I/O under SAIO 10%.
	for _, pages := range []int{4, 12, 48} {
		pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.10})
		if err != nil {
			return nil, err
		}
		cfg := storage.DefaultConfig()
		cfg.BufferPages = pages
		res, err := r.runOne(ctx, tr, sim.Config{Policy: pol, Storage: cfg})
		if err != nil {
			return nil, err
		}
		t.AddRow("buffer-size@saio(10%)", fmt.Sprintf("%d pages", pages), "total I/O",
			fmt.Sprint(res.Final.TotalIO()))
	}

	// 4. Decluster batch: SAGA/FGS-HB achieved garbage at a 10% request.
	for _, batch := range []int{1, 10, 150} {
		p := oo7.SmallPrime(opts.Connectivity)
		p.DeclusterBatch = batch
		btr, err := oo7.FullTrace(p, opts.SeedBase)
		if err != nil {
			return nil, err
		}
		est, err := core.NewFGSHB(0.8)
		if err != nil {
			return nil, err
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
		if err != nil {
			return nil, err
		}
		res, err := r.runOne(ctx, btr, sim.Config{Policy: pol})
		if err != nil {
			return nil, err
		}
		t.AddRow("decluster-batch@saga(10%)", fmt.Sprint(batch), "achieved garbage %",
			fmt.Sprintf("%.2f", res.GarbageFrac*100))
	}

	rep.Table = t
	rep.Notes = append(rep.Notes,
		"updated-pointer should reclaim more than round-robin/random and approach the oracle bound",
		"physical fixups should multiply per-collection GC I/O severalfold",
		"a buffer below one partition should inflate total I/O (§3.1)",
		"larger decluster batches stress the controller with bigger garbage bursts")
	return rep, nil
}
