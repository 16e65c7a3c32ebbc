package core

import (
	"slices"

	"repro/internal/set"
	"repro/internal/storage"
)

// The sorted-list candidate algebra the processor ran before its term
// bitsets, kept as the reference the bitset path is checked against.

// sidDiff returns a \ b for ascending sid lists by a sorted merge.
func sidDiff(a, b []storage.SID) []storage.SID {
	var out []storage.SID
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] == b[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

// sidUnion returns a ∪ b for ascending sid lists by a sorted merge.
func sidUnion(a, b []storage.SID) []storage.SID {
	var out []storage.SID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// dedupe sorts and deduplicates sids in place.
func dedupe(sids []storage.SID) []storage.SID {
	slices.Sort(sids)
	return slices.Compact(sids)
}

// ReferenceCandidates derives the Section 4.3 candidate set of (q, [s1,
// s2]) without touching a bucket page or a bitset: each term's vector is
// every live sid whose insert key equals the probe key in some table of
// the term's filter index, listed once per colliding table and
// sort-deduplicated, and the terms are combined as
// (PosA \ NegA) ∪ (PosB \ NegB) by sorted merges.
func (ix *Index) ReferenceCandidates(q set.Set, s1, s2 float64) ([]storage.SID, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var stats QueryStats
	c, err := ix.combination(s1, s2, &stats)
	if err != nil {
		return nil, err
	}
	sig := ix.perms.Sign(q)
	vector := func(ord int) []storage.SID {
		if ord < 0 {
			return nil
		}
		f := ix.fis[ord]
		probe := f.AppendProbeKeys(sig, nil)
		var raw []storage.SID
		for i, stored := range ix.sigs {
			if stored == nil {
				continue
			}
			for tab, key := range probe {
				if f.Key(tab, stored, 0) == key {
					raw = append(raw, storage.SID(i))
				}
			}
		}
		return dedupe(raw)
	}
	var terms [4][]storage.SID
	for slot, ord := range [4]int{c.PosA, c.NegA, c.PosB, c.NegB} {
		terms[slot] = vector(ord)
	}
	a := sidDiff(terms[0], terms[1])
	if c.PosB >= 0 {
		a = sidUnion(a, sidDiff(terms[2], terms[3]))
	}
	return a, nil
}
