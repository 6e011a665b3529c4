package obs

import "runtime/metrics"

// runtimeStats is the "runtime" entry of the JSON document.
type runtimeStats struct {
	Goroutines        uint64  `json:"goroutines"`
	HeapLiveBytes     uint64  `json:"heapLiveBytes"`
	GCCycles          uint64  `json:"gcCycles"`
	GCPauseCPUSeconds float64 `json:"gcPauseCpuSeconds"`
}

// DeclareRuntime declares Go runtime health as one snapshot group: a
// single runtime/metrics read per scrape, which — unlike
// runtime.ReadMemStats — does not stop the world.
func DeclareRuntime(r *Registry) {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"}, {Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	g := NewGroup(r, "runtime", func() runtimeStats {
		metrics.Read(samples) // scrapes take turns, so the slice is reused
		return runtimeStats{samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Uint64(), samples[3].Value.Float64()}
	})
	g.Value(Desc{Name: "go_goroutines", Type: "gauge", Help: "Goroutines that currently exist."},
		func(s runtimeStats) float64 { return float64(s.Goroutines) })
	g.Value(Desc{Name: "go_heap_live_bytes", Type: "gauge", Help: "Heap memory occupied by objects live at the last GC cycle."},
		func(s runtimeStats) float64 { return float64(s.HeapLiveBytes) })
	g.Value(Desc{Name: "go_gc_cycles_total", Type: "counter", Help: "Completed GC cycles."},
		func(s runtimeStats) float64 { return float64(s.GCCycles) })
	g.Value(Desc{Name: "go_gc_pause_cpu_seconds_total", Type: "counter", Float: true, Help: "Estimated CPU time the application spent paused by the GC: pause latency times GOMAXPROCS."},
		func(s runtimeStats) float64 { return s.GCPauseCPUSeconds })
}
