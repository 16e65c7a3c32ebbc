package ssr

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
)

// TestWatermarkCoversSettledFrames checks ReplicationWatermark's contract
// under concurrent Adds, at one shard and at four: every insert with a sid
// below SettledSID has its frame inside Ends. Watermarks are polled while
// writers run; afterwards each shard's frames are read back through
// ReadFrames and every polled watermark is checked against them.
func TestWatermarkCoversSettledFrames(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ix, err := CreateDurable(t.TempDir(), bookstore(), durableShardedBuildOpts(shards),
				DurableOptions{Sync: SyncNever, CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			src, err := ix.ReplicationSource()
			if err != nil {
				t.Fatal(err)
			}
			base := uint32(ix.Internal().NumAllocated())
			starts := make([]WALPosition, shards)
			for si := range starts {
				if starts[si], err = src.Position(si); err != nil {
					t.Fatal(err)
				}
			}

			const writers, perWriter, maxSamples = 4, 1500, 1 << 17
			var (
				stop    atomic.Bool
				samples []ReplicationWatermark
				polled  = make(chan struct{})
			)
			go func() {
				defer close(polled)
				for !stop.Load() && len(samples) < maxSamples {
					samples = append(samples, src.Watermark())
				}
			}()
			// A reader beside the writers, as in serving: its queries
			// contend for the collection lock the write path also takes.
			read := make(chan struct{})
			go func() {
				defer close(read)
				for !stop.Load() {
					if _, _, err := ix.Query([]string{"wm-0-0", "shared"}, 0.5, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						if _, err := ix.Add(fmt.Sprintf("wm-%d-%d", w, i), "shared"); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			stop.Store(true)
			<-polled
			<-read
			if t.Failed() {
				t.FailNow()
			}

			// frameEnd[sid] is the position just past sid's insert frame.
			total := base + writers*perWriter
			frameEnd := make([]WALPosition, total)
			owner := make([]int, total)
			seen := make([]bool, total)
			for si := 0; si < shards; si++ {
				pos := starts[si]
				for {
					data, next, _, err := src.ReadFrames(si, pos, 1<<20)
					if err != nil {
						t.Fatal(err)
					}
					if len(data) == 0 {
						break
					}
					off := pos.Offset
					if _, _, err := wal.Replay(bytes.NewReader(data), func(rec wal.Record) error {
						off += int64(len(wal.AppendRecordFrame(nil, rec)))
						if rec.Op == wal.OpInsert {
							frameEnd[rec.SID] = WALPosition{Generation: pos.Generation, Offset: off}
							owner[rec.SID], seen[rec.SID] = si, true
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					pos = next
				}
			}
			// need[k][si] is the furthest frame end on shard si over sids
			// below k: a watermark settling k must cover it.
			need := make([][]WALPosition, total+1)
			need[base] = append([]WALPosition(nil), starts...)
			for sid := base; sid < total; sid++ {
				if !seen[sid] {
					t.Fatalf("sid %d has no insert frame", sid)
				}
				need[sid+1] = append([]WALPosition(nil), need[sid]...)
				if si := owner[sid]; need[sid+1][si].Before(frameEnd[sid]) {
					need[sid+1][si] = frameEnd[sid]
				}
			}
			bad := 0
			for _, wm := range samples {
				if wm.SettledSID < base {
					continue
				}
				for si, end := range wm.Ends {
					if end.Before(need[wm.SettledSID][si]) {
						if bad == 0 {
							t.Errorf("watermark settles sid %d but shard %d ends at %s, before frame end %s",
								wm.SettledSID, si, end, need[wm.SettledSID][si])
						}
						bad++
						break
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d polled watermarks settle a sid whose frame lies outside Ends", bad, len(samples))
			}
			t.Logf("%d watermarks polled", len(samples))
		})
	}
}
