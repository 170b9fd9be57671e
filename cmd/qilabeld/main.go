// Command qilabeld serves the labeling pipeline as a long-running
// HTTP/JSON daemon (see internal/server for the endpoint reference):
//
//	qilabeld [-addr :8080] [-pprof addr] [-cache-file path]
//	         [-lexicon extra.json] [-lexicon-dir dir] [-drain-timeout 10s]
//	         [-max-inflight N] [-timeout 30s] [-max-body 8388608]
//	         [-max-batch 64] [-cache 128] [-max-sessions 64]
//	         [-max-domains 64] [-max-lexicons N]
//
// Every flag is either a deployment setting, which only the operator can
// know, or a declared bound on the work or memory one daemon accepts:
//
//	-addr           deployment: the service listener
//	-pprof          deployment: a separate profiling listener (off by default)
//	-cache-file     deployment: where the result cache persists across restarts
//	-lexicon        deployment: the site's lexicon facts, made the default version
//	-lexicon-dir    deployment: the directory of selectable lexicon versions
//	-drain-timeout  deployment: how long the supervisor waits for a stop
//	-max-inflight   bound: concurrent pipeline computations (503 past it)
//	-timeout        bound: wall time of one pipeline computation (504)
//	-max-body       bound: request body bytes (413)
//	-max-batch      bound: items of one /v1/integrate/batch request
//	-cache          bound: result-cache entries
//	-max-sessions   bound: live /v1/sessions sessions
//	-max-domains    bound: live discovered domains
//	-max-lexicons   bound: lexicon versions held at once
//
// The rest is fixed: pipeline stages fan out over GOMAXPROCS workers,
// /v1/ingest forms share a domain at the built-in similarity threshold,
// idle sessions and discovered domains are evicted after 15 minutes, the
// cache is checkpointed every 5 minutes and -lexicon-dir is rescanned
// every 30 seconds.
//
// -lexicon extends the embedded lexicon with the file's entries and
// registers the result as the default version: optionless requests, the
// "default" alias and the version's content address all select it.
// -lexicon-dir serves every *.json lexicon in the directory as a
// selectable version (requests pick one with the "lexicon" option or the
// X-Lexicon header; file base names are aliases, content addresses are
// canonical). Besides the periodic rescan, a request naming an unknown
// alias triggers a lazy one, so dropping a file in is enough — no
// restart, no signal.
//
// The daemon exits cleanly on SIGINT/SIGTERM, draining in-flight requests
// for up to -drain-timeout before closing the listener.
//
// -cache-file makes the integration-result cache survive restarts: the
// daemon restores the snapshot at startup (a missing file is a cold
// start; a corrupt or configuration-mismatched one is logged and
// ignored), checkpoints it atomically every 5 minutes, and writes a final
// snapshot after the SIGTERM drain — so a previously computed
// integration is a warm cache hit on the next boot.
//
// -pprof starts a second listener (for example -pprof localhost:6060)
// serving the net/http/pprof profiling endpoints under /debug/pprof/.
// The profiler stays off the service listener so operators can expose the
// API without also exposing heap dumps and CPU profiles; bind it to
// localhost or a management network only.
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

	"qilabel"
	"qilabel/internal/server"
)

// Fixed intervals of the daemon's background work.
const (
	// checkpointEvery spaces the periodic -cache-file snapshots; the
	// final snapshot after the drain does not wait for it.
	checkpointEvery = 5 * time.Minute
	// rescanEvery spaces the -lexicon-dir hot-reload rescans.
	rescanEvery = 30 * time.Second
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent pipeline computations (0 = 2×GOMAXPROCS); excess requests get 503")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request pipeline timeout")
	cacheSize := flag.Int("cache", 128, "integration-result LRU capacity in entries (negative disables)")
	cacheFile := flag.String("cache-file", "", "persist the result cache to this file (restored at startup, checkpointed every 5m, saved on shutdown); empty disables")
	maxBatch := flag.Int("max-batch", 64, "max items per /v1/integrate/batch request")
	maxSessions := flag.Int("max-sessions", 64, "max concurrently live /v1/sessions sessions; creating past the cap evicts the least-recently-used")
	maxDomains := flag.Int("max-domains", 64, "max concurrently live discovered domains; discovering past the cap evicts the least-recently-used")
	maxBody := flag.Int64("max-body", 8<<20, "request body size limit in bytes")
	lexFile := flag.String("lexicon", "", "extend the built-in lexicon with entries from this JSON file and serve the result as the default version")
	lexDir := flag.String("lexicon-dir", "", "serve every *.json lexicon (artifact or plain) in this directory as a selectable version, rescanned every 30s; file base names become aliases")
	maxLexicons := flag.Int("max-lexicons", 0, "max lexicon versions held at once (0 = registry default); alias-pinned versions never evict")
	drain := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
	flag.Parse()

	cfg := server.Config{
		MaxInflight:    *maxInflight,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		CacheSize:      *cacheSize,
		MaxBatchItems:  *maxBatch,
		MaxSessions:    *maxSessions,
		MaxDomains:     *maxDomains,
		MaxLexicons:    *maxLexicons,
	}
	if *lexFile != "" {
		data, err := os.ReadFile(*lexFile)
		if err != nil {
			log.Fatalf("qilabeld: %v", err)
		}
		extra, err := qilabel.DecodeLexicon(data)
		if err != nil {
			log.Fatalf("qilabeld: %v", err)
		}
		lex := qilabel.DefaultLexicon().Clone()
		lex.AddFrom(extra)
		cfg.Lexicon = lex
	}

	srv := server.New(cfg)
	if *lexDir != "" {
		switch n, err := srv.LoadLexiconDir(*lexDir); {
		case err != nil:
			// Never fatal: the good files loaded; the bad ones are named.
			log.Printf("qilabeld: lexicon dir: %v", err)
			fallthrough
		case n > 0:
			log.Printf("qilabeld: serving %d lexicon version(s) from %s", n, *lexDir)
		}
	}
	if *cacheFile != "" {
		switch n, err := srv.LoadCache(*cacheFile); {
		case err != nil:
			// Never fatal: a corrupt or stale snapshot means a cold start.
			log.Printf("qilabeld: ignoring cache snapshot: %v", err)
		case n > 0:
			log.Printf("qilabeld: restored %d cached integrations from %s", n, *cacheFile)
		}
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		dbg := &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("qilabeld: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("qilabeld: pprof listener: %v", err)
			}
		}()
		defer dbg.Close()
	}

	if *lexDir != "" {
		go every(ctx, rescanEvery, func() {
			if _, err := srv.ReloadLexicons(); err != nil {
				log.Printf("qilabeld: lexicon reload: %v", err)
			}
		})
	}
	if *cacheFile != "" {
		go every(ctx, checkpointEvery, func() {
			if _, err := srv.SaveCache(*cacheFile); err != nil {
				log.Printf("qilabeld: cache checkpoint: %v", err)
			}
		})
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("qilabeld: listening on %s", *addr)

	select {
	case err := <-errCh:
		log.Fatalf("qilabeld: %v", err)
	case <-ctx.Done():
	}

	log.Printf("qilabeld: shutting down, draining in-flight requests (up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("qilabeld: forced shutdown: %v", err)
		_ = httpSrv.Close()
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("qilabeld: %v", err)
	}
	if *cacheFile != "" {
		// The drain is complete: every in-flight integration has finished
		// and cached, so this final snapshot is the authoritative one.
		if n, err := srv.SaveCache(*cacheFile); err != nil {
			log.Printf("qilabeld: final cache snapshot: %v", err)
		} else {
			log.Printf("qilabeld: saved %d cached integrations to %s", n, *cacheFile)
		}
	}
	fmt.Println("qilabeld: bye")
}

// every runs fn at each tick of interval until ctx is done.
func every(ctx context.Context, interval time.Duration, fn func()) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fn()
		case <-ctx.Done():
			return
		}
	}
}
