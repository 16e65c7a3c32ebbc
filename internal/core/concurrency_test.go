package core

import (
	"encoding/gob"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestConcurrentQueries exercises the documented guarantee that a built
// index is safe for concurrent queries (run with -race to check).
func TestConcurrentQueries(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 32, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(qs))
	for _, q := range qs {
		wg.Add(1)
		go func(q workload.Query) {
			defer wg.Done()
			if _, _, err := ix.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{}); err != nil {
				errs <- err
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

// TestConcurrentQueriesDeterministic verifies that concurrency does not
// change results: the same query run concurrently and serially agrees.
func TestConcurrentQueriesDeterministic(t *testing.T) {
	ix, sets := buildSmall(t, 200, 30)
	serial, _, err := ix.QueryWithOptions(sets[0], 0.5, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]Match, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, _, err := ix.QueryWithOptions(sets[0], 0.5, 1.0, QueryOptions{})
			if err == nil {
				results[g] = m
			}
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if len(got) != len(serial) {
			t.Fatalf("goroutine %d: %d results, serial %d", g, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("goroutine %d: result %d differs", g, i)
			}
		}
	}
}

// TestConcurrentMixedReadWrite hammers the index with simultaneous
// queries, top-k probes, estimates, snapshots, inserts, and deletes. It
// exists for the race detector: every access path must go through
// Index.mu, and -race fails the build of this test if one bypasses it.
// Functional checks are deliberately loose (writers change the answer set
// while readers run); what must hold is that nothing panics, no call
// returns an internal inconsistency error, and the final Len reflects
// every insert and delete exactly once.
func TestConcurrentMixedReadWrite(t *testing.T) {
	const (
		initial   = 200
		readers   = 8
		writers   = 4
		perWriter = 10
	)
	ix, sets := buildSmall(t, initial, 30)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 64, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	var readersWG, writersWG sync.WaitGroup
	errs := make(chan error, readers+writers)
	stop := make(chan struct{})

	// Readers: each loops over queries of every flavour until the writers
	// finish, so reads genuinely overlap the mutations.
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func(g int) {
			defer readersWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(g*13+i)%len(qs)]
				switch i % 4 {
				case 0:
					if _, _, err := ix.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{}); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := ix.TopKPresigned(sets[q.SID], nil, 3); err != nil {
						errs <- err
						return
					}
				case 2:
					// Estimate against a sid writers never delete.
					if _, _, err := ix.EstimateSimilarity(sets[q.SID], storage.SID(q.SID)); err != nil {
						errs <- err
						return
					}
					_ = ix.Len()
					_ = ix.IndexPages()
				case 3:
					// Encode the capture outside the lock, as an image does:
					// the aliased sets must not race with the writers.
					snap := ix.Snapshot()
					if err := gob.NewEncoder(io.Discard).Encode(&snap); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}

	// Writers: each inserts perWriter fresh sets and deletes half of them
	// again. Deletions only touch sids this writer created, so they never
	// collide with the readers' probe sids or with each other.
	var inserted, deleted atomic.Int64
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				base := uint64(1_000_000 + w*10_000 + i*100)
				s := set.New(base, base+1, base+2, base+3, base+4)
				sid, err := ix.Insert(s)
				if err != nil {
					errs <- err
					return
				}
				inserted.Add(1)
				if i%2 == 0 {
					if err := ix.Delete(sid); err != nil {
						errs <- err
						return
					}
					deleted.Add(1)
				}
			}
		}(w)
	}

	// Writers do bounded work; once they finish (or bail on error), release
	// the readers and drain everything.
	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent mixed op: %v", err)
	}

	wantLen := initial + int(inserted.Load()) - int(deleted.Load())
	if got := ix.Len(); got != wantLen {
		t.Errorf("Len = %d after stress, want %d (%d inserted, %d deleted)",
			got, wantLen, inserted.Load(), deleted.Load())
	}
	// The surviving inserts must actually be queryable.
	probe := set.New(1_000_100, 1_000_101, 1_000_102, 1_000_103, 1_000_104)
	if _, _, err := ix.QueryWithOptions(probe, 0.0, 1.0, QueryOptions{}); err != nil {
		t.Errorf("post-stress query: %v", err)
	}
}
