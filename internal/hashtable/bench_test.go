package hashtable

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// benchSids is the benchmark collection's size.
const benchSids = 20000

// benchPairs returns one table's build input shaped like the benchmark's
// r = 12 tables: sids 0..benchSids-1 ascending, their keys drawn from a
// Zipf law over 4096 sampled-bit strings, so five keys hold half the sids
// (the benchmark's r = 12 tables seal about 45 % of their entries in
// about seven bitmap runs) and most hold a handful.
func benchPairs() ([]storage.SID, []uint64) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.3, 1, 4095)
	sids := make([]storage.SID, benchSids)
	keys := make([]uint64, benchSids)
	for i := range sids {
		sids[i] = storage.SID(i)
		keys[i] = zipf.Uint64() * 0x9e3779b97f4a7c15
	}
	return sids, keys
}

func benchTable(b *testing.B, sids []storage.SID, keys []uint64) *Table {
	tab, err := New(0, Options{ExpectedEntries: len(sids)})
	if err != nil {
		b.Fatal(err)
	}
	tab.Load(sids, keys)
	return tab
}

// loadSink keeps BenchmarkTableLoad's tables live.
var loadSink *Table

// BenchmarkTableLoad builds one table as a filter-index build does: an
// empty table, one Load of ascending distinct sids.
func BenchmarkTableLoad(b *testing.B) {
	sids, keys := benchPairs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loadSink = benchTable(b, sids, keys)
	}
}

// BenchmarkTableProbe probes keys drawn like the stored ones, so heavy keys
// dominate, into one cleared query bitset.
func BenchmarkTableProbe(b *testing.B) {
	sids, keys := benchPairs()
	tab := benchTable(b, sids, keys)
	marks := make([]uint64, (benchSids+63)/64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(marks)
		marks = tab.Probe(keys[i*7919%len(keys)], nil, marks)
	}
}

// BenchmarkTableDelete removes the loaded pairs one at a time in a
// scattered order, reloading the table when all are gone.
func BenchmarkTableDelete(b *testing.B) {
	sids, keys := benchPairs()
	order := rand.New(rand.NewSource(2)).Perm(benchSids)
	var tab *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchSids == 0 {
			b.StopTimer()
			tab = benchTable(b, sids, keys)
			b.StartTimer()
		}
		j := order[i%benchSids]
		if tab.Delete(keys[j], sids[j]) != 1 {
			b.Fatalf("Delete(%#x, %d) did not remove one entry", keys[j], sids[j])
		}
	}
}
