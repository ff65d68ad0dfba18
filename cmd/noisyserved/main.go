// Command noisyserved runs the sweep service: a persistent HTTP server
// that executes broadcast-schedule sweep jobs, streams partial statistics
// as shards complete, and caches finished results under their canonical
// plan key so a repeated submission is a byte-exact replay instead of a
// re-execution.
//
// Usage:
//
//	noisyserved -addr :8091
//	noisyserved -addr 127.0.0.1:0 -cache 4096 -workers 8
//
// Endpoints:
//
//	POST /v1/jobs   submit a job spec (JSON), receive an NDJSON stream of
//	                prefix-merge snapshots and a terminal result line;
//	                the X-Cache header reports hit | miss | coalesced
//	GET  /metrics   plain-text counters (jobs, cache hits/misses, ...)
//	GET  /healthz   liveness
//
// The job spec vocabulary is the CLI's: schedule name from the registry,
// topology name, n, k, fault model, p, draw contract and its parameters,
// seed and trials (see noisysim -submit, which speaks it). SIGTERM and
// SIGINT drain gracefully: the listener closes, in-flight jobs run to
// completion (bounded by -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"noisyradio/internal/serve"
	"noisyradio/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "noisyserved:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("noisyserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8091", "listen address (host:port; port 0 picks a free port)")
		cacheSize  = fs.Int("cache", 1024, "result cache capacity in finished job bodies (LRU)")
		shards     = fs.Int("shards", 0, "fixed shard count per job (0 = derive from trials: min(8, ceil(trials/32)))")
		workers    = fs.Int("workers", 0, "sweep worker pool size per job (0 = GOMAXPROCS)")
		trialBatch = fs.String("trialbatch", "auto", "lockstep trial-batch plan: auto | 0 (scalar) | W in 2..16 (dense engine only); output identical at every setting")
		drain      = fs.Duration("drain", 30*time.Second, "max time to wait for in-flight jobs on SIGTERM/SIGINT")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb, err := sim.ParseTrialBatch(*trialBatch)
	if err != nil {
		return err
	}
	if *cacheSize < 1 {
		return fmt.Errorf("-cache must be >= 1, got %d", *cacheSize)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", *shards)
	}

	handler := serve.NewServer(serve.Config{
		CacheSize:  *cacheSize,
		Shards:     *shards,
		Workers:    *workers,
		TrialBatch: tb,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// The bound address is printed (not just the flag) so port-0 callers —
	// tests, the CI smoke job — can discover where to submit.
	fmt.Fprintf(out, "noisyserved: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining
	fmt.Fprintf(out, "noisyserved: draining (up to %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "noisyserved: drained, bye")
	return nil
}
