package dst

import (
	"encoding/json"
	"fmt"
	"os"
)

// Artifact is a self-contained failure reproduction: the fleet shape,
// the violation, and the (minimized) event schedule that triggers it.
// Replaying it needs no RNG and no environment beyond this package —
// node faults carry explicit node lists, submissions carry their exact
// demands.
type Artifact struct {
	Version    int        `json:"version"`
	Seed       int64      `json:"seed"`
	Members    int        `json:"members"`
	Nodes      int        `json:"nodes"`
	Inject     bool       `json:"inject,omitempty"`
	Violation  *Violation `json:"violation"`
	FullEvents int        `json:"full_events"`
	Events     []Event    `json:"events"`
}

// artifactVersion guards the schema and the harness the schedule runs
// against; bump on incompatible changes to either. Version 1 artifacts
// carried mixed_solver / migrations flags that chose between schedules
// and harness shapes that no longer exist.
const artifactVersion = 2

// NewArtifact packages a failing run for replay.
func NewArtifact(cfg Config, v *Violation, minimized []Event, fullLen int) *Artifact {
	return &Artifact{
		Version:    artifactVersion,
		Seed:       cfg.Seed,
		Members:    cfg.members(),
		Nodes:      cfg.nodes(),
		Inject:     cfg.Inject,
		Violation:  v,
		FullEvents: fullLen,
		Events:     minimized,
	}
}

// Config rebuilds the run configuration the artifact's schedule expects.
func (a *Artifact) Config() Config {
	return Config{Seed: a.Seed, Members: a.Members, Nodes: a.Nodes, Inject: a.Inject}
}

// Replay runs the artifact's schedule and returns the result; the
// original violation is expected to reappear (same name).
func (a *Artifact) Replay() *Result {
	return Run(a.Config(), a.Events)
}

// WriteArtifact saves the artifact as indented JSON.
func WriteArtifact(path string, a *Artifact) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("dst: encoding artifact: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadArtifact loads an artifact written by WriteArtifact.
func ReadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("dst: decoding artifact %s: %w", path, err)
	}
	if a.Version != artifactVersion {
		return nil, fmt.Errorf("dst: artifact %s has version %d, want %d", path, a.Version, artifactVersion)
	}
	return &a, nil
}
