package main

import "sort"

// experiments are the reports of `nachobench -exp all`, in the order it
// prints them. paper-regen regenerates exactly these.
var experiments = []string{
	"table1", "fig5", "fig6", "fig7", "table2", "table3", "fig8",
	"ext-adaptive", "ext-energy", "ext-wt", "ext-table2-long", "ext-fp",
	"ext-seeds",
}

// perLayer maps every per-layer metric BENCHMARK.json declares to its unit.
// README.md gives each one's meaning and the end-to-end metric it should
// move.
var perLayer = func() map[string]string {
	m := map[string]string{
		"harness.cells_requested":  "count",
		"harness.cells_unique":     "count",
		"harness.cell_p50_ms":      "ms",
		"harness.cell_p95_ms":      "ms",
		"harness.pool_util":        "fraction",
		"emu.runs.ref":             "count",
		"emu.runs.aot":             "count",
		"emu.instructions":         "count",
		"emu.ns_per_instr":         "ns",
		"program.build_ms":         "ms",
		"asm.render_ms":            "ms",
		"compile.text_ms":          "ms",
		"harness.build_machine_ms": "ms",
		"fuzzer.gen_ms":            "ms",
		"fuzzer.check_ms":          "ms",
		"fuzzer.setup_share":       "fraction",
		"fuzzer.oracle_runs":       "count",
		"snapshot.instants":        "count",
		"snapshot.windows":         "count",
		"snapshot.sim_speedup":     "ratio",
		"snapshot.us_per_instant":  "us",
		"cache.accesses":           "count",
		"cache.hit_rate":           "fraction",
		"core.checkpoints":         "count",
		"checkpoint.lines":         "count",
		"systems.nvm_bytes":        "bytes",
		"verify.violations":        "count",
		"sim_nacho_norm_time":      "ratio",
		"sim_nacho_nvm_vs_clank":   "ratio",
		"runtime.map_cpu_share":    "fraction",
		"runtime.gc_cpu_share":     "fraction",
		"other.cpu_share":          "fraction",
		"runtime.alloc_mb":         "MB",
		"trace.overhead":           "ratio",
	}
	for _, e := range experiments {
		m["harness.experiment_s."+e] = "s"
	}
	for _, mod := range modules {
		m[mod+".cpu_share"] = "fraction"
	}
	return m
}()

func perLayerNames() []string {
	names := make([]string, 0, len(perLayer))
	for n := range perLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
