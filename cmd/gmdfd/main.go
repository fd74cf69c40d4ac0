// Command gmdfd is the debug farm daemon: a long-running server
// multiplexing many isolated debug sessions — each an independent
// simulated board or TDMA cluster — behind a newline-delimited JSON
// protocol over TCP. Clients (gmdf -connect, CI scripts, tests) create
// sessions by model name, attach to their event streams, set
// breakpoints, step, checkpoint and rewind; sessions detached with a
// checkpoint can be resumed byte-identically in another gmdfd process
// sharing the same -store directory.
//
//	gmdfd -listen 127.0.0.1:7788 -store /var/lib/gmdfd -http 127.0.0.1:7789
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/farm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmdfd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmdfd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7788", "TCP address to serve the farm protocol on (port 0 picks a free port)")
	store := fs.String("store", "", "checkpoint store directory; empty keeps checkpoints in memory only (detach/resume then works within this process, not across processes)")
	httpAddr := fs.String("http", "", "optional HTTP address exposing /stats (JSON counters: sessions, attach-latency percentiles, events streamed)")
	maxSessions := fs.Int("max-sessions", farm.DefaultMaxSessions, "maximum concurrently active sessions")
	maxDSLKB := fs.Int("max-dsl-kb", farm.DefaultMaxSourceBytes/1024, "maximum scenario DSL source size accepted per create request, in KB (negative disables DSL creates)")
	workers := fs.Int("workers", 0, "how many simulation advances run at once; bounds CPU used across all sessions (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "log per-connection and per-session lifecycle lines")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := farm.Options{StoreDir: *store, MaxSessions: *maxSessions, MaxSourceBytes: *maxDSLKB * 1024, Workers: *workers}
	if *verbose {
		opts.Logf = log.New(os.Stderr, "gmdfd: ", log.LstdFlags).Printf
	}
	srv, err := farm.NewServer(opts)
	if err != nil {
		return err
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// The scripted callers (CI, tests) parse this line for the bound port.
	fmt.Fprintf(out, "gmdfd listening on %s\n", lis.Addr())
	if *store != "" {
		fmt.Fprintf(out, "gmdfd checkpoint store at %s\n", *store)
	}

	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "gmdfd stats at http://%s/stats\n", hl.Addr())
		go func() { _ = http.Serve(hl, srv) }()
		defer hl.Close()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		srv.Close()
	}()

	if err := srv.Serve(lis); err != nil {
		return err
	}
	st := srv.StatsSnapshot()
	fmt.Fprintf(out, "gmdfd shut down: %d sessions served (%d resumed), %d requests, %d events streamed\n",
		st.SessionsCreated+st.SessionsResumed, st.SessionsResumed, st.Requests, st.EventsStreamed)
	return nil
}
