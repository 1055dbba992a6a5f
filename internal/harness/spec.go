package harness

import (
	"fmt"

	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// The serializable run plane: every experiment is, underneath, a matrix of
// RunSpec cells, and a RunSpec is the wire form of one cell — complete enough
// that a worker process on another machine can rebuild the exact RunConfig
// and execute it, landing the result in the shared persistent store under the
// same digest the coordinator computed. ExperimentSpecs enumerates an
// experiment's matrix without running anything (the run cache's collect
// mode); ExecuteSpec is the worker side.

// RunSpec is the serializable identity of one run. The schedule travels as
// its Key() string (power.ParseKey is the inverse); the engine as its
// resolved name. Zero-valued optional fields are omitted on the wire.
type RunSpec struct {
	Program  string `json:"program"`
	System   string `json:"system"`
	Engine   string `json:"engine,omitempty"`
	Cache    int    `json:"cache"`
	Ways     int    `json:"ways"`
	Schedule string `json:"schedule"`

	ForcedCheckpointPeriod uint64 `json:"forced_period,omitempty"`
	ForcedCheckpointMargin uint64 `json:"forced_margin,omitempty"`
	MaxInstructions        uint64 `json:"max_instructions,omitempty"`
	MaxCycles              uint64 `json:"max_cycles,omitempty"`
	FinalFlush             bool   `json:"final_flush,omitempty"`
	Verify                 bool   `json:"verify"`

	ClockHz   uint64 `json:"clock_hz"`
	HitCycles uint64 `json:"hit_cycles"`
	NVMCycles uint64 `json:"nvm_cycles"`

	DirtyThreshold   int  `json:"dirty_threshold,omitempty"`
	EnergyPrediction bool `json:"energy_prediction,omitempty"`
}

// SpecFor renders one run request into its serializable spec. cfg's cost
// model is defaulted and its engine resolved, so the spec round-trips to an
// identical store digest on any process.
func SpecFor(p *program.Program, kind systems.Kind, cfg RunConfig) RunSpec {
	if cfg.Cost == (mem.CostModel{}) {
		cfg.Cost = mem.DefaultCostModel()
	}
	return RunSpec{
		Program:                p.Name,
		System:                 string(kind),
		Engine:                 string(cfg.resolvedEngine()),
		Cache:                  cfg.CacheSize,
		Ways:                   cfg.Ways,
		Schedule:               scheduleKey(cfg),
		ForcedCheckpointPeriod: cfg.ForcedCheckpointPeriod,
		ForcedCheckpointMargin: cfg.ForcedCheckpointMargin,
		MaxInstructions:        cfg.MaxInstructions,
		MaxCycles:              cfg.MaxCycles,
		FinalFlush:             cfg.FinalFlush,
		Verify:                 cfg.Verify,
		ClockHz:                cfg.Cost.ClockHz,
		HitCycles:              cfg.Cost.HitCycles,
		NVMCycles:              cfg.Cost.NVMCycles,
		DirtyThreshold:         cfg.DirtyThreshold,
		EnergyPrediction:       cfg.EnergyPrediction,
	}
}

// Resolve validates a spec received off the wire and rebuilds the concrete
// run request: the registered program, system kind, and RunConfig (schedule
// reconstructed via power.ParseKey, engine via emu.ParseEngine).
func (sp RunSpec) Resolve() (*program.Program, systems.Kind, RunConfig, error) {
	p, ok := program.ByName(sp.Program)
	if !ok {
		return nil, "", RunConfig{}, fmt.Errorf("harness: spec names unknown benchmark %q", sp.Program)
	}
	kind := systems.Kind(sp.System)
	valid := false
	for _, k := range systems.AllKinds() {
		if k == kind {
			valid = true
			break
		}
	}
	if !valid {
		return nil, "", RunConfig{}, fmt.Errorf("harness: spec names unknown system %q", sp.System)
	}
	sched, err := power.ParseKey(sp.Schedule)
	if err != nil {
		return nil, "", RunConfig{}, fmt.Errorf("harness: spec schedule: %w", err)
	}
	engine, err := emu.ParseEngine(sp.Engine)
	if err != nil {
		return nil, "", RunConfig{}, fmt.Errorf("harness: spec engine: %w", err)
	}
	cfg := RunConfig{
		CacheSize:              sp.Cache,
		Ways:                   sp.Ways,
		ForcedCheckpointPeriod: sp.ForcedCheckpointPeriod,
		ForcedCheckpointMargin: sp.ForcedCheckpointMargin,
		MaxInstructions:        sp.MaxInstructions,
		MaxCycles:              sp.MaxCycles,
		FinalFlush:             sp.FinalFlush,
		Verify:                 sp.Verify,
		Cost:                   mem.CostModel{ClockHz: sp.ClockHz, HitCycles: sp.HitCycles, NVMCycles: sp.NVMCycles},
		DirtyThreshold:         sp.DirtyThreshold,
		EnergyPrediction:       sp.EnergyPrediction,
		Engine:                 engine,
	}
	if _, isNone := sched.(power.None); !isNone {
		cfg.Schedule = sched
	}
	if cfg.Cost == (mem.CostModel{}) {
		cfg.Cost = mem.DefaultCostModel()
	}
	return p, kind, cfg, nil
}

// Digest returns the spec's persistent-store digest — the content address its
// result will occupy once executed. It builds the program image, so the first
// call per benchmark assembles it.
func (sp RunSpec) Digest() (string, error) {
	p, kind, cfg, err := sp.Resolve()
	if err != nil {
		return "", err
	}
	img, err := p.Build()
	if err != nil {
		return "", err
	}
	key := storeKeyFor(img, kind, cfg, true)
	return key.Digest(), nil
}

// ExecuteSpec resolves and executes one spec through the full store-aware run
// path (persistent-store read-through and write-behind included) and returns
// the digest its result is stored under. A spec whose simulation fails still
// succeeds here — the error outcome is a result like any other, recorded in
// the store; only an invalid spec (unknown program/system, malformed
// schedule or engine) returns an error.
func ExecuteSpec(sp RunSpec) (string, error) {
	p, kind, cfg, err := sp.Resolve()
	if err != nil {
		return "", err
	}
	img, err := p.Build()
	if err != nil {
		return "", err
	}
	key := storeKeyFor(img, kind, cfg, true)
	runImageStored(img, kind, cfg, true)
	return key.Digest(), nil
}

// experimentDef is one registered experiment: its matrix-and-report builder
// plus its paper-default benchmark set (nil for experiments with a fixed
// internal set).
type experimentDef struct {
	build    func(rc *runCache, benchmarks []string) (*Report, error)
	defaults func() []string
}

// experimentRegistry maps every regenerable table and figure to its builder.
// experimentOrder keeps the paper's presentation order for listings.
var (
	experimentOrder = []string{
		"table1", "fig5", "fig6", "fig7", "table2", "table3", "fig8",
		"ext-adaptive", "ext-energy", "ext-wt", "ext-table2-long", "ext-fp",
		"ext-seeds",
	}
	experimentRegistry = map[string]experimentDef{
		"table1": {
			build:    func(*runCache, []string) (*Report, error) { return Table1(), nil },
			defaults: func() []string { return nil },
		},
		"fig5":   {build: fig5, defaults: AllBenchmarks},
		"fig6":   {build: fig6, defaults: Fig6Benchmarks},
		"fig7":   {build: fig7, defaults: Fig6Benchmarks},
		"table2": {build: table2, defaults: Table2Benchmarks},
		"table3": {build: table3, defaults: Table3Benchmarks},
		"fig8":   {build: fig8, defaults: AllBenchmarks},
		"ext-adaptive": {
			build:    extAdaptive,
			defaults: func() []string { return []string{"coremark", "quicksort", "picojpeg", "dijkstra"} },
		},
		"ext-energy": {build: extEnergy, defaults: AllBenchmarks},
		"ext-wt":     {build: extWriteThrough, defaults: AllBenchmarks},
		"ext-table2-long": {
			build:    func(rc *runCache, _ []string) (*Report, error) { return extTable2Long(rc) },
			defaults: func() []string { return nil },
		},
		"ext-fp":    {build: extFalsePositives, defaults: AllBenchmarks},
		"ext-seeds": {build: extSeedVariance, defaults: Table2Benchmarks},
	}
)

// ExperimentNames lists the regenerable experiments in paper order.
func ExperimentNames() []string {
	out := make([]string, len(experimentOrder))
	copy(out, experimentOrder)
	return out
}

// resolveExperiment looks a named experiment up and settles its benchmark
// set (nil or empty means the experiment's default).
func resolveExperiment(name string, benchmarks []string) (experimentDef, []string, error) {
	def, ok := experimentRegistry[name]
	if !ok {
		return experimentDef{}, nil, fmt.Errorf("harness: unknown experiment %q", name)
	}
	if len(benchmarks) == 0 {
		benchmarks = def.defaults()
	}
	return def, benchmarks, nil
}

// RunNamedExperiment regenerates one experiment by name, with benchmarks
// narrowing the set (nil means the paper default).
func RunNamedExperiment(name string, benchmarks []string) (*Report, error) {
	def, benchmarks, err := resolveExperiment(name, benchmarks)
	if err != nil {
		return nil, err
	}
	return regenerate(func(rc *runCache) (*Report, error) { return def.build(rc, benchmarks) })
}

// ExperimentSpecs enumerates the run matrix of a named experiment without
// executing anything: the builder runs once against a collect-mode run cache
// and each unique requested cell becomes a RunSpec, in deterministic request
// order. Probed or traced cells (none of the registered experiments have any)
// would bypass collection the same way they bypass caching.
func ExperimentSpecs(name string, benchmarks []string) ([]RunSpec, error) {
	def, benchmarks, err := resolveExperiment(name, benchmarks)
	if err != nil {
		return nil, err
	}
	dry := newRunCache()
	dry.collect = true
	if _, err := def.build(dry, benchmarks); err != nil {
		return nil, err
	}
	specs := make([]RunSpec, len(dry.jobs))
	for i, j := range dry.jobs {
		specs[i] = SpecFor(j.p, j.kind, j.cfg)
	}
	return specs, nil
}
