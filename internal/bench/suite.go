package bench

import (
	"fmt"
	"sync"

	"fpgapart/internal/hypergraph"
)

// Circuit describes one benchmark of the paper's evaluation suite with
// its published post-mapping characteristics (Table II) used as
// generation targets.
type Circuit struct {
	Name   string
	Params Params
	// Published Table II characteristics of the XC3000-mapped circuit
	// (the targets the synthetic substitute reproduces).
	CLBs, IOBs, DFF int
}

// Suite returns the paper's nine benchmark circuits: the ISCAS-85
// combinational circuits c3540–c7552 and the ISCAS-89 sequential
// circuits s5378–s38584 (MCNC Partitioning93 set). Sequential circuits
// get a higher clustering knob, matching the paper's observation that
// their cells are more clustered.
func Suite() []Circuit {
	mk := func(name string, cells, pi, po, dff int, clustering, distant float64, seed int64) Circuit {
		return Circuit{
			Name: name,
			Params: Params{
				Name: name, Cells: cells, PrimaryIn: pi, PrimaryOut: po,
				DFFs: dff, Clustering: clustering, DistantPackFrac: distant, Seed: seed,
			},
			CLBs: cells, IOBs: pi + po, DFF: dff,
		}
	}
	// The sequential circuits get a higher distant-packing fraction:
	// register clusters let the mapper pack across regions more often,
	// which is where the paper sees its largest replication wins.
	return []Circuit{
		mk("c3540", 283, 50, 22, 0, 0.35, 0.04, 3540),
		mk("c5315", 545, 178, 123, 0, 0.35, 0.05, 5315),
		mk("c6288", 833, 32, 32, 0, 0.80, 0.03, 6288), // array multiplier: highly local
		mk("c7552", 717, 207, 108, 0, 0.35, 0.05, 7552),
		mk("s5378", 381, 35, 49, 179, 0.60, 0.06, 5378),
		mk("s9234", 454, 36, 39, 211, 0.65, 0.07, 9234),
		mk("s13207", 915, 62, 152, 638, 0.65, 0.07, 13207),
		mk("s15850", 1052, 77, 150, 534, 0.65, 0.07, 15850),
		mk("s38584", 2941, 38, 304, 1426, 0.70, 0.07, 38584),
	}
}

// ByName returns the suite circuit with the given name.
func ByName(name string) (Circuit, bool) {
	for _, c := range Suite() {
		if c.Name == name {
			return c, true
		}
	}
	return Circuit{}, false
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*hypergraph.Graph{}
)

// Build generates (and memoizes) the synthetic substitute for the
// circuit. Generation is deterministic, so the cache is purely a
// speed-up for experiment drivers that revisit circuits.
func (c Circuit) Build() (*hypergraph.Graph, error) {
	key := fmt.Sprintf("%s/%d", c.Name, c.Params.Seed)
	cacheMu.Lock()
	g, ok := cache[key]
	cacheMu.Unlock()
	if ok {
		return g, nil
	}
	g, err := Generate(c.Params)
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s: %w", c.Name, err)
	}
	// A concurrent caller may have stored the circuit since the lookup;
	// every caller gets the graph stored first.
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if first, ok := cache[key]; ok {
		return first, nil
	}
	cache[key] = g
	return g, nil
}

// Small returns a reduced copy of the circuit (cells scaled by 1/f)
// for fast benchmarks and tests; characteristics scale accordingly.
func (c Circuit) Small(f int) Circuit {
	if f <= 1 {
		return c
	}
	out := c
	out.Name = fmt.Sprintf("%s/%d", c.Name, f)
	out.Params.Name = out.Name
	out.Params.Cells = max(4, c.Params.Cells/f)
	out.Params.PrimaryIn = max(2, c.Params.PrimaryIn/f)
	out.Params.PrimaryOut = max(1, c.Params.PrimaryOut/f)
	out.Params.DFFs = c.Params.DFFs / f
	out.CLBs = out.Params.Cells
	out.IOBs = out.Params.PrimaryIn + out.Params.PrimaryOut
	out.DFF = out.Params.DFFs
	return out
}
