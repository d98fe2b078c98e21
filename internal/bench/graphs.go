package bench

import (
	"fmt"

	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
)

// JSONGraph is the machine-readable shape of a lowered op graph, the
// unit of the report's graph_before/graph_after sections.
type JSONGraph struct {
	Ops         int `json:"ops"`
	EngineCalls int `json:"engine_calls"`
	RotateCalls int `json:"rotate_calls"`
	Rescales    int `json:"rescales"`
	Hoists      int `json:"hoists"`
	MinLevel    int `json:"min_level"`
}

func jsonGraph(s ir.Stats) JSONGraph {
	return JSONGraph{
		Ops:         s.Ops,
		EngineCalls: s.EngineCalls,
		RotateCalls: s.RotateCalls(),
		Rescales:    s.ByKind[ir.OpRescale],
		Hoists:      s.Hoists,
		MinLevel:    s.MinLevel,
	}
}

// GraphReport carries the optimizer evidence for the JSON envelope:
// per (model, backend) graph sizes before and after the pass pipeline,
// keyed "CNN1/ckks-rns" style, plus the optimizer setting they were
// produced under.
type GraphReport struct {
	Optimizer string
	Before    map[string]JSONGraph
	After     map[string]JSONGraph
}

// GraphSizes lowers and optimizes each named model on both backends and
// records the graph shapes under "<name>/<backend>" keys. Models compile
// with the smallest input grid that fits (a single ciphertext for the
// paper's MNIST models, a shard grid for CIFAR-10 CNN3), as the tables
// that measure them do. Lowering is symbolic — it only reads engine
// parameters — so this uses params-only engine stubs and costs
// milliseconds, no key generation.
func GraphSizes(cfg Config, models map[string]*nn.Model) (*GraphReport, error) {
	rep := &GraphReport{
		Optimizer: cfg.Opt.Setting(),
		Before:    map[string]JSONGraph{},
		After:     map[string]JSONGraph{},
	}
	for name, model := range models {
		plan, err := henn.CompileShardedAuto(model, 1<<(cfg.LogN-1))
		if err != nil {
			return nil, err
		}
		k := plan.Depth + 1
		if k < 13 {
			k = 13 // the paper's Table II chain length, as in heVsRNS
		}
		params, err := rnsParams(cfg, k)
		if err != nil {
			return nil, err
		}
		bigParams, err := ckksbig.FromRNSParameters(params)
		if err != nil {
			return nil, err
		}
		engines := []henn.Engine{
			henn.ParamsOnlyEngine("ckks-rns", params.Slots(), params.MaxLevel(), params.Scale, params.QiFloat),
			henn.ParamsOnlyEngine("ckks-big", bigParams.Slots(), bigParams.MaxLevel(), bigParams.Scale, bigParams.QiFloat),
		}
		for _, e := range engines {
			g, err := plan.Lower(e)
			if err != nil {
				return nil, fmt.Errorf("bench: lowering %s on %s: %w", name, e.Name(), err)
			}
			res, err := opt.Optimize(e, g, cfg.Opt)
			if err != nil {
				return nil, fmt.Errorf("bench: optimizing %s on %s: %w", name, e.Name(), err)
			}
			key := name + "/" + e.Name()
			rep.Before[key] = jsonGraph(g.Stats())
			rep.After[key] = jsonGraph(res.After)
		}
	}
	return rep, nil
}
