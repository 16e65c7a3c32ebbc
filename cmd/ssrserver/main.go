// Command ssrserver serves a similar-set index over HTTP/JSON (see
// internal/server for the endpoint reference).
//
// Usage:
//
//	ssrgen -n 5000 -o sets.txt
//	ssrserver -data sets.txt -budget 200 -addr :8080
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/query/sid -d '{"sid":7,"lo":0.8,"hi":1.0}'
//
// A previously saved snapshot (see ssrindex -save) can be served directly
// with -snapshot, skipping the build. With -wal the index is durable:
// mutations (POST /sets, DELETE /sets/{sid}) are write-ahead logged to the
// given directory before they are acknowledged, the log is checkpointed
// and compacted as it grows, and a restart recovers everything up to the
// -wal-sync horizon. The first run against an empty -wal directory
// bootstraps it from -data; later runs ignore -data and recover from the
// directory alone.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain (bounded by -shutdown-timeout) and, when durability is enabled, a
// final checkpoint is flushed so the next start skips log replay.
//
// Replication: a durable index (-wal) automatically serves the /replica/*
// stream endpoints, making it a primary any follower can tail. A follower
// runs with -follow http://primary:8080 plus its own -wal directory: it
// bootstraps from the primary's newest checkpoints, tails the WAL stream,
// serves reads only (mutations get 403), and reports ready on /readyz
// once its replication lag is within -lag-bound bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	ssr "repro"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/textio"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		data     = flag.String("data", "", "collection file (one set per line)")
		snapshot = flag.String("snapshot", "", "index snapshot to serve (skips build)")
		budget   = flag.Int("budget", 200, "hash-table budget")
		recall   = flag.Float64("recall", 0.85, "optimizer recall target")
		k        = flag.Int("k", 100, "min-hash signature length")
		seed     = flag.Int64("seed", 1, "build seed")
		shards   = flag.Int("shards", 1, "independent index shards (1 = classic monolithic layout)")

		walDir       = flag.String("wal", "", "durability directory (write-ahead log + checkpoints)")
		walSync      = flag.String("wal-sync", "always", "log sync policy: always, interval, never")
		walSyncEvery = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync period under -wal-sync=interval")
		walCkptBytes = flag.Int64("wal-checkpoint-bytes", 8<<20, "checkpoint + rotate once the live log exceeds this size")
		walPrealloc  = flag.Int64("wal-prealloc", 0, "preallocate log segments in chunks of this many bytes (0 = plain append+fsync)")

		autotune      = flag.Bool("autotune", false, "track similarity drift online and hot-swap a re-derived plan when it passes the threshold (durable indexes checkpoint the new plan)")
		autotuneEvery = flag.Duration("autotune-interval", 30*time.Second, "drift evaluation period under -autotune")
		autotuneDrift = flag.Float64("autotune-drift", 0, "drift threshold (max CDF distance) that triggers a retune; 0 = default 0.15")

		follow   = flag.String("follow", "", "follower mode: primary base URL to mirror (requires -wal for the local mirror)")
		lagBound = flag.Int64("lag-bound", 1<<20, "follower readiness bound: /readyz reports ready once replication lag is within this many bytes")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "time limit for reading a request's headers")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "time limit for reading an entire request, body included")
		writeTimeout      = flag.Duration("write-timeout", 60*time.Second, "time limit for writing a response (replication streams extend their own deadline per frame)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive limit for idle connections")

		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	if *walDir != "" && *snapshot != "" {
		log.Fatal("ssrserver: -wal and -snapshot are mutually exclusive (the durability directory has its own checkpoints)")
	}

	var handler http.Handler
	var closeNode func() error
	if *follow != "" {
		if *walDir == "" {
			log.Fatal("ssrserver: -follow requires -wal <dir> for the local mirror")
		}
		mode, err := ssr.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("ssrserver: %v", err)
		}
		fol, err := replica.StartFollower(context.Background(), replica.FollowerOptions{
			Dir:     *walDir,
			Primary: *follow,
			Durable: ssr.DurableOptions{
				Sync:          mode,
				SyncEvery:     *walSyncEvery,
				PreallocBytes: *walPrealloc,
			},
			LagBoundBytes: *lagBound,
		})
		if err != nil {
			log.Fatalf("ssrserver: starting follower: %v", err)
		}
		closeNode = fol.Close
		handler = server.NewWithConfig(nil, server.Config{
			Role:     "follower",
			ReadOnly: true,
			Index:    fol.Index,
			Readiness: func() (bool, map[string]any) {
				st := fol.Status()
				return st.CaughtUp, map[string]any{
					"connected": st.Connected,
					"lagBytes":  st.LagBytes,
					"caughtUp":  st.CaughtUp,
					"resyncs":   st.Resyncs,
				}
			},
		})
		log.Printf("following %s into %s", *follow, *walDir)
	} else {
		ix, err := openIndex(*data, *snapshot, *walDir, *walSync, *walSyncEvery, *walCkptBytes, *walPrealloc, *budget, *recall, *k, *seed, *shards)
		if err != nil {
			log.Fatalf("ssrserver: %v", err)
		}
		if *autotune {
			policy := ssr.TunePolicy{CheckEvery: *autotuneEvery, DriftThreshold: *autotuneDrift, Seed: *seed}
			if err := ix.EnableAutoTune(policy); err != nil {
				log.Fatalf("ssrserver: enabling auto-tune: %v", err)
			}
			log.Printf("auto-tune enabled (interval %v); tuner state on GET /stats", *autotuneEvery)
		}
		closeNode = ix.Close
		cfg := server.Config{}
		if *walDir != "" {
			// A durable index is a primary: serve the replication stream.
			repl, err := replica.NewHandler(ix, replica.HandlerOptions{})
			if err != nil {
				log.Fatalf("ssrserver: replication handler: %v", err)
			}
			cfg.Role, cfg.Replication = "primary", repl
		}
		handler = server.NewWithConfig(ix, cfg)
		log.Printf("serving %d sets on %s", ix.Internal().Len(), *addr)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush a final checkpoint so restart skips replay.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		log.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("ssrserver: draining requests: %v", err)
		}
		if err := closeNode(); err != nil {
			log.Printf("ssrserver: closing index: %v", err)
		}
	}()

	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ssrserver: %v", err)
	}
	<-done
}

// openIndex resolves the three serving modes: durable (-wal), snapshot
// (-snapshot), or ephemeral build (-data).
func openIndex(data, snapshot, walDir, walSync string, walSyncEvery time.Duration, walCkptBytes, walPrealloc int64, budget int, recall float64, k int, seed int64, shards int) (*ssr.Index, error) {
	if walDir == "" {
		return buildOrLoad(data, snapshot, budget, recall, k, seed, shards)
	}
	mode, err := ssr.ParseSyncMode(walSync)
	if err != nil {
		return nil, err
	}
	dopt := ssr.DurableOptions{
		Sync:            mode,
		SyncEvery:       walSyncEvery,
		CheckpointBytes: walCkptBytes,
		PreallocBytes:   walPrealloc,
	}
	has, err := ssr.HasDurableState(walDir)
	if err != nil {
		return nil, err
	}
	if has {
		start := time.Now()
		ix, err := ssr.OpenDurable(walDir, dopt)
		if err != nil {
			return nil, err
		}
		log.Printf("recovered durable index from %s in %v", walDir, time.Since(start).Round(time.Millisecond))
		return ix, nil
	}
	if data == "" {
		return nil, fmt.Errorf("%s holds no durable state; pass -data <file> to bootstrap it", walDir)
	}
	coll, err := textio.LoadCollection(data)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ix, err := ssr.CreateDurable(walDir, coll, ssr.Options{
		Budget: budget, RecallTarget: recall, MinHashes: k, Seed: seed, Shards: shards,
	}, dopt)
	if err != nil {
		return nil, err
	}
	log.Printf("bootstrapped durable index over %d sets into %s in %v", coll.Len(), walDir, time.Since(start).Round(time.Millisecond))
	return ix, nil
}

func buildOrLoad(data, snapshot string, budget int, recall float64, k int, seed int64, shards int) (*ssr.Index, error) {
	switch {
	case snapshot != "":
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		defer f.Close() // read-only fd; Load fails on any read error
		return ssr.Load(f)
	case data != "":
		coll, err := textio.LoadCollection(data)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ix, err := ssr.Build(coll, ssr.Options{
			Budget: budget, RecallTarget: recall, MinHashes: k, Seed: seed, Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		log.Printf("built index over %d sets in %v", coll.Len(), time.Since(start).Round(time.Millisecond))
		return ix, nil
	default:
		return nil, fmt.Errorf("pass -data <file>, -snapshot <file>, or -wal <dir>")
	}
}
