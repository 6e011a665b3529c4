package exp

import (
	"fmt"

	"budgetwf/internal/platform"
	"budgetwf/internal/stats"
	"budgetwf/internal/wfgen"
)

// MetricsTable characterizes the benchmark families the way §V-A
// describes them qualitatively: depth, width, edge density,
// communication-to-computation ratio and Amdahl serial fraction,
// averaged over the given instances. It documents quantitatively why
// the families behave differently in the sweeps (MONTAGE: dense,
// compute-bound; CYBERSHAKE: shallow, transfer-bound; LIGO: wide
// independent blocks).
func MetricsTable(types []wfgen.Type, n, instances int, seed uint64) (*Table, error) {
	if len(types) == 0 {
		types = append(wfgen.AllPaperTypes(), wfgen.ExtendedTypes()...)
	}
	if instances <= 0 {
		instances = DefaultInstances
	}
	p := platform.Default()
	t := &Table{
		Title: fmt.Sprintf("Benchmark characterization — %d tasks, %d instances per family", n, instances),
		Columns: []string{
			"workflow", "tasks", "edges", "depth", "width",
			"edge_density", "ccr", "serial_frac",
		},
	}
	for _, typ := range types {
		var edges, depth, width, density, ccr, serial []float64
		for i := 0; i < instances; i++ {
			w, err := wfgen.Generate(typ, n, seed*1000+uint64(i))
			if err != nil {
				return nil, err
			}
			m, err := w.ComputeMetrics(p.MeanSpeed(), p.Bandwidth)
			if err != nil {
				return nil, err
			}
			edges = append(edges, float64(m.Edges))
			depth = append(depth, float64(m.Depth))
			width = append(width, float64(m.Width))
			density = append(density, m.EdgeDensity)
			ccr = append(ccr, m.CCR)
			serial = append(serial, m.SerialFraction)
		}
		t.AddRow(string(typ), n,
			stats.Mean(edges), stats.Mean(depth), stats.Mean(width),
			stats.Mean(density), stats.Mean(ccr), stats.Mean(serial))
	}
	return t, nil
}
