package eval

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/workload"
)

func buildFixture(t *testing.T, n int) (*core.Index, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(sets, core.Options{
		Embed: minhash.Options{K: 48, Bits: 8, Seed: 2},
		Plan:  optimize.Options{Budget: 50, RecallTarget: 0.85},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, sets
}

func TestRunProducesOutcomes(t *testing.T) {
	ix, sets := buildFixture(t, 400)
	r := NewRunner(ix, sets)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := r.Run(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 15 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for i, o := range outcomes {
		if o.Recall < 0 || o.Recall > 1 {
			t.Errorf("outcome %d recall %g", i, o.Recall)
		}
		if o.Precision < 0 || o.Precision > 1 {
			t.Errorf("outcome %d precision %g", i, o.Precision)
		}
		if o.Results > o.Candidates {
			t.Errorf("outcome %d results %d > candidates %d", i, o.Results, o.Candidates)
		}
		if o.Results > o.Truth {
			t.Errorf("outcome %d results %d > truth %d (verification broken)", i, o.Results, o.Truth)
		}
		if o.ScanIO <= 0 {
			t.Errorf("outcome %d scan I/O %v", i, o.ScanIO)
		}
		if o.Hits != o.Results {
			t.Errorf("outcome %d hits %d != results %d", i, o.Hits, o.Results)
		}
	}
}

func TestRunnerSizeMismatch(t *testing.T) {
	ix, sets := buildFixture(t, 100)
	r := NewRunner(ix, sets[:50])
	if _, err := r.Run([]workload.Query{{SID: 0, Lo: 0, Hi: 1}}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestRunnerSIDOutOfRange(t *testing.T) {
	ix, sets := buildFixture(t, 100)
	r := NewRunner(ix, sets)
	if _, err := r.Run([]workload.Query{{SID: 5000, Lo: 0, Hi: 1}}); err == nil {
		t.Error("out-of-range sid accepted")
	}
}

func TestBucketize(t *testing.T) {
	outcomes := []Outcome{
		{Candidates: 1, Recall: 1.0, Precision: 0.5, IndexIO: time.Second},
		{Candidates: 30, Recall: 0.8, Precision: 0.9, IndexIO: 2 * time.Second},
		{Candidates: 31, Recall: 0.6, Precision: 0.7},
		{Candidates: 990, Recall: 0.4, Precision: 0.5},
	}
	// n = 1000: fractions 0.001, 0.03, 0.031, 0.99.
	buckets := Bucketize(outcomes, 1000, PaperBuckets)
	if len(buckets) != len(PaperBuckets)+1 {
		t.Fatalf("got %d buckets", len(buckets))
	}
	if buckets[0].Count != 1 {
		t.Errorf("bucket0 count = %d", buckets[0].Count)
	}
	if buckets[1].Count != 2 {
		t.Errorf("bucket1 count = %d", buckets[1].Count)
	}
	last := buckets[len(buckets)-1]
	if last.Count != 1 {
		t.Errorf("overflow bucket count = %d", last.Count)
	}
	if got := buckets[1].Recall; got != 0.7 {
		t.Errorf("bucket1 avg recall = %g, want 0.7", got)
	}
	if got := buckets[1].Precision; got != 0.8 {
		t.Errorf("bucket1 avg precision = %g, want 0.8", got)
	}
	if buckets[0].IndexIO != time.Second {
		t.Errorf("bucket0 avg IO = %v", buckets[0].IndexIO)
	}
}

func TestBucketLabel(t *testing.T) {
	b := BucketStats{LoFrac: 0.005, HiFrac: 0.05}
	if got := b.Label(); got != "0.5%-5.0%" {
		t.Errorf("Label = %q", got)
	}
}

func TestBucketizeEmptyAndZeroN(t *testing.T) {
	buckets := Bucketize(nil, 100, PaperBuckets)
	for _, b := range buckets {
		if b.Count != 0 {
			t.Error("phantom outcomes")
		}
	}
	// n = 0 must not panic; everything lands by frac 0 in the first bucket.
	buckets = Bucketize([]Outcome{{Candidates: 5}}, 0, PaperBuckets)
	if buckets[0].Count != 1 {
		t.Errorf("n=0 bucketing = %+v", buckets)
	}
}

// TestRecallMeetsPlanTarget is the headline integration property: measured
// aggregate recall should be near the optimizer's model prediction.
func TestRecallMeetsPlanTarget(t *testing.T) {
	ix, sets := buildFixture(t, 600)
	r := NewRunner(ix, sets)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := r.Run(qs)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, o := range outcomes {
		if o.Truth > 0 {
			sum += o.Recall
			n++
		}
	}
	if n == 0 {
		t.Skip("no queries with non-empty answers")
	}
	avg := sum / float64(n)
	if avg < 0.6 {
		t.Errorf("average measured recall %.3f far below the 0.85 plan target", avg)
	}
}

func TestBucketizeProperties(t *testing.T) {
	// Every outcome lands in exactly one bucket; counts are conserved and
	// averages stay within observed value ranges.
	outcomes := make([]Outcome, 0, 100)
	for i := 0; i < 100; i++ {
		outcomes = append(outcomes, Outcome{
			Candidates: (i * 13) % 97,
			Recall:     float64(i%11) / 10,
			Precision:  float64(i%7) / 6,
		})
	}
	buckets := Bucketize(outcomes, 97, PaperBuckets)
	total := 0
	for _, b := range buckets {
		total += b.Count
		if b.Count > 0 {
			if b.Recall < 0 || b.Recall > 1 || b.Precision < 0 || b.Precision > 1 {
				t.Fatalf("bucket %s averages out of range: %+v", b.Label(), b)
			}
		}
		if b.LoFrac >= b.HiFrac {
			t.Fatalf("degenerate bucket %+v", b)
		}
	}
	if total != len(outcomes) {
		t.Fatalf("bucketized %d of %d outcomes", total, len(outcomes))
	}
}
