package lockorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

// fixtureConfig mirrors the repo hierarchy onto the fixture package's
// types (load.Dir checks fixtures under their package name as the path).
func fixtureConfig() lockorder.Config {
	return lockorder.Config{
		Levels: []lockorder.Level{
			{Name: "plan-cache", Mutexes: []string{"lockuse.Cache.mu"}},
			{Name: "tune", Mutexes: []string{"lockuse.Engine.tmu"}},
			{Name: "engine-shard", Mutexes: []string{"lockuse.Shard.mu"}},
			{Name: "mapping", Mutexes: []string{"lockuse.Engine.gmu"}},
			{Name: "core", Mutexes: []string{"lockuse.Core.mu"}},
		},
	}
}

func TestLockOrder(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src/lockuse", lockorder.New(fixtureConfig()))
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want 5", len(diags))
	}
}
