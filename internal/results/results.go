// Package results is the hybridmem.results/v1 envelope: the artifact header,
// its result rows and their deterministic JSON encoding. It is a leaf — it
// imports nothing from this module — so the offline runner, the CLIs and the
// observability plane can all emit and read artifacts without depending on
// one another. Filling a row from a model evaluation is runner.MetricsFrom.
package results

import (
	"encoding/json"
	"fmt"
	"io"
)

// Schema is the artifact format identifier. Bump the suffix on any
// breaking change to the JSON layout so downstream diff tooling can
// refuse mixed-version comparisons.
const Schema = "hybridmem.results/v1"

// Artifact is the machine-readable outcome of one experiment invocation:
// a header identifying the run configuration plus one Result per job.
// Encoding is deterministic — struct field order is fixed, map keys are
// sorted by encoding/json, and no wall-clock values are included — so the
// same (tool, kind, scale, seed) produces byte-identical bytes at any
// parallelism, which CI exploits to diff results run over run.
type Artifact struct {
	Schema string `json:"schema"`
	// Tool and Kind identify the producer ("sweep"/"threshold",
	// "figures"/"grid", ...).
	Tool string `json:"tool"`
	Kind string `json:"kind"`
	// Scale and Seed echo the invocation's trace configuration.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Adaptive records whether the proposed scheme ran with adaptive
	// thresholds, so fixed and adaptive grids are never silently
	// diff-compared as the same experiment.
	Adaptive bool `json:"adaptive,omitempty"`
	// Results holds one entry per job, in job order.
	Results []Result `json:"results"`
}

// Result is one job's evaluated outcome.
type Result struct {
	ID       string `json:"id"`
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Seed     int64  `json:"seed"`
	// Params records the sweep knobs that produced this point
	// (thresholds, DRAM share, page factor, ...).
	Params map[string]float64 `json:"params,omitempty"`
	// Pages/DRAMPages/NVMPages echo the provisioning.
	Pages     int `json:"pages,omitempty"`
	DRAMPages int `json:"dram_pages,omitempty"`
	NVMPages  int `json:"nvm_pages,omitempty"`
	// Metrics is the model evaluation (absent for results that are not
	// simulation runs, e.g. wear-leveling ablations).
	Metrics *Metrics `json:"metrics,omitempty"`
	// Values carries derived or auxiliary scalars (normalized ratios,
	// endurance figures).
	Values map[string]float64 `json:"values,omitempty"`
}

// Metrics flattens a model.Report into stable JSON fields: the Eq. 1 AMAT
// breakdown (ns/access), the Eq. 2+3 energy breakdown (nJ/access), the
// endurance write counts and the Table I probabilities that downstream
// analyses normalize by.
type Metrics struct {
	Accesses            int64   `json:"accesses"`
	AMATTotalNS         float64 `json:"amat_total_ns"`
	AMATHitsNS          float64 `json:"amat_hits_ns"`
	AMATMigrationsNS    float64 `json:"amat_migrations_ns"`
	AMATMissNS          float64 `json:"amat_miss_ns"`
	PowerTotalNJ        float64 `json:"power_total_nj"`
	PowerStaticNJ       float64 `json:"power_static_nj"`
	PowerDynamicNJ      float64 `json:"power_dynamic_nj"`
	PowerPageFaultNJ    float64 `json:"power_pagefault_nj"`
	PowerMigrationNJ    float64 `json:"power_migration_nj"`
	NVMWritesTotal      int64   `json:"nvm_writes_total"`
	NVMWritesRequests   int64   `json:"nvm_writes_requests"`
	NVMWritesPageFault  int64   `json:"nvm_writes_pagefault"`
	NVMWritesMigration  int64   `json:"nvm_writes_migration"`
	DRAMHitRatio        float64 `json:"dram_hit_ratio"`
	NVMHitRatio         float64 `json:"nvm_hit_ratio"`
	MissRatio           float64 `json:"miss_ratio"`
	PromotionsPerAccess float64 `json:"promotions_per_access"`
	DemotionsPerAccess  float64 `json:"demotions_per_access"`
	RuntimeNS           float64 `json:"runtime_ns"`
}

// NewArtifact returns an artifact header for one invocation.
func NewArtifact(tool, kind string, scale float64, seed int64) *Artifact {
	return &Artifact{Schema: Schema, Tool: tool, Kind: kind, Scale: scale, Seed: seed}
}

// Add appends a result.
func (a *Artifact) Add(r Result) { a.Results = append(a.Results, r) }

// Encode renders the artifact as indented JSON with a trailing newline.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("results: encoding artifact: %w", err)
	}
	return append(b, '\n'), nil
}

// Write encodes the artifact to w.
func (a *Artifact) Write(w io.Writer) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadArtifact decodes an artifact and checks its schema, the entry point
// for run-over-run diff tooling.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("results: decoding artifact: %w", err)
	}
	if a.Schema != Schema {
		return nil, fmt.Errorf("results: artifact schema %q, want %q", a.Schema, Schema)
	}
	return &a, nil
}
