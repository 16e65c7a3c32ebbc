package atomicview_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/atomicview"
)

func TestAtomicView(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src/atomuse", atomicview.Analyzer)
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2", len(diags))
	}
}
