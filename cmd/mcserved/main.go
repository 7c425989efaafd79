// Command mcserved runs the admission-control daemon: an HTTP/JSON
// service answering the paper's partitioning question on pooled
// Partitioners, with per-request deadlines, bounded-queue
// backpressure, probe-only graceful degradation past a queue
// watermark, and per-request panic quarantine (see internal/serve).
//
// Endpoints:
//
//	POST /v1/admit   admission question (serve.Request JSON)
//	GET  /healthz    liveness (always 200 while the process runs)
//	GET  /readyz     readiness (503 while draining)
//	GET  /metricz    metrics snapshot (obs JSON)
//
// The first SIGINT/SIGTERM starts a graceful drain: /readyz flips to
// 503, in-flight and queued admissions finish, then the process
// exits 0. A second signal aborts immediately with exit code 3.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"catpa/internal/obs"
	"catpa/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "localhost:8377", "listen address")
		queue     = fs.Int("queue", 256, "admission queue depth (full queue sheds with 429)")
		workers   = fs.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
		watermark = fs.Int("watermark", 0, "queue depth that triggers degraded mode (0 = 3/4 of queue, negative disables)")
		timeout   = fs.Duration("timeout", 2*time.Second, "per-request deadline")
		cache     = fs.Int("cache", 1024, "verdict cache entries (negative disables)")
		maxTasks  = fs.Int("max-tasks", 10000, "largest accepted task set")
		maxCores  = fs.Int("max-cores", 1024, "largest accepted core count")
		drain     = fs.Duration("drain", 30*time.Second, "graceful drain budget on the first signal")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "mcserved: %v\n", err)
		return 1
	}
	reg := obs.NewRegistry()
	srv := serve.NewServer(serve.Config{
		QueueDepth:       *queue,
		Workers:          *workers,
		DegradeWatermark: *watermark,
		RequestTimeout:   *timeout,
		CacheSize:        *cache,
		MaxTasks:         *maxTasks,
		MaxCores:         *maxCores,
		Metrics:          reg,
	})
	hs := &http.Server{Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(stdout, "mcserved: serving on %s (queue %d, timeout %v)\n", ln.Addr(), *queue, *timeout)

	select {
	case err := <-errc:
		signal.Stop(sig)
		fmt.Fprintf(stderr, "mcserved: %v\n", err)
		_ = srv.Shutdown(context.Background()) // Serve has stopped: finish queued work and stop the workers
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "mcserved: %v: draining (second signal aborts)\n", s)
	}

	// Second signal: abort without waiting for the drain.
	go func() {
		<-sig
		fmt.Fprintln(stderr, "mcserved: aborted")
		os.Exit(3)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "mcserved: drain incomplete: %v\n", err)
		code = 1
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "mcserved: http shutdown: %v\n", err)
		code = 1
	}
	fmt.Fprintln(stdout, "mcserved: drained")
	return code
}
