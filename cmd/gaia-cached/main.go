// Command gaia-cached runs a standalone node of the shared simulation-
// result cache tier: one run cache's store (internal/runcache) behind the
// minimal HTTP shard protocol (GET/PUT /v1/cache/{fingerprint},
// GET /v1/cache/stats), with nothing else — no simulator, no oracle
// tables, no admission gate. Entries are held in memory under the
// -max-bytes budget, oldest evicted first; with -dir each is also written
// as <fingerprint>.c2.s1.gacc, the file gaia-serve's -cache-dir and
// gaia-exp's -cache use, so an entry evicted from memory is still served.
//
// Use it to give a gaia-serve fleet cache capacity that survives replica
// deploys: point every replica's -fleet-peers at a set of gaia-cached
// nodes (leaving -fleet-self empty makes the replicas pure clients), and
// cache ownership stays put while the serving tier churns.
//
//	# 1 GB in-memory shard, persisted under /var/cache/gaia-cached:
//	gaia-cached -addr :8405 -max-bytes 1073741824 -dir /var/cache/gaia-cached
//
// SIGINT/SIGTERM shut the listener down cleanly; with -dir set the shard
// contents are served again after a restart.
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

	"github.com/carbonsched/gaia/internal/fleet"
	"github.com/carbonsched/gaia/internal/runcache"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "gaia-cached: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gaia-cached", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8405", "listen address")
		dir      = fs.String("dir", "", "write-through disk directory (empty = memory only)")
		maxBytes = fs.Int64("max-bytes", runcache.DefaultMaxBytes, "in-memory shard byte budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cache := runcache.New()
	cache.SetMaxBytes(*maxBytes)
	if *dir != "" {
		if err := cache.SetDir(*dir); err != nil {
			return err
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           fleet.NewCacheServer(cache).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("gaia-cached: serving shard on %s (budget %d bytes)", *addr, *maxBytes)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := cache.Stats()
	log.Printf("gaia-cached: bye (%d entries, %d bytes, %d hits, %d misses)",
		st.Entries, st.Bytes, st.Hits, st.Misses)
	return nil
}
