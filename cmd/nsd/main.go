// Command nsd is the experiment service daemon: a persistent,
// network-fronted runner pool. Submissions from any number of clients
// share one memoizing pool and one on-disk result store, so a measurement
// is simulated at most once across every CLI run and daemon restart that
// shares -cache-dir.
//
// Usage:
//
//	nsd                            # listen on :8080, store under ./nsd-cache
//	nsd -addr :0 -cache-dir /var/cache/nsd -j 8
//	nsd -queue 128 -max-client 16  # admission control knobs
//
// API (JSON unless noted):
//
//	POST   /api/v1/jobs            submit one job        {"workload":..,"system":..}
//	POST   /api/v1/figures/{id}    submit a figure's job set (?quick=1, ?workloads=a,b)
//	GET    /api/v1/jobs            list tasks
//	GET    /api/v1/jobs/{id}       poll status
//	GET    /api/v1/jobs/{id}/result  fetch result (figures: ?format=text for raw bytes)
//	GET    /api/v1/jobs/{id}/events  per-job progress over SSE
//	DELETE /api/v1/jobs/{id}       cancel
//	GET    /api/v1/report          cumulative obs run report
//	GET    /api/v1/live            daemon-wide live metrics over SSE (?interval_ms=)
//	GET    /metrics                Prometheus text format (counters, gauges, histograms)
//	GET    /debug/pprof/           Go runtime profiles (heap, goroutine, profile, trace)
//	GET    /healthz                liveness (200 even while draining)
//	GET    /readyz                 readiness (503 once draining begins)
//
// A full queue answers 429 with Retry-After; SIGTERM/SIGINT drains
// gracefully (in-flight simulations finish, queued jobs are canceled once
// -drain-timeout expires; a second signal exits immediately).
//
// Fleet mode scales the daemon horizontally (see DESIGN.md "Fleet mode"):
//
//	nsd -mode coordinator -workers http://w1:8081,http://w2:8081
//	nsd -mode worker -addr :8081 -cache-dir /shared/nsd-cache \
//	    -coordinator http://c:8080
//
// The coordinator serves the ordinary API unchanged but dispatches each
// distinct job to a worker chosen by consistent hashing on the job key,
// merges the workers' progress into the client's SSE feed, and rebalances
// away from dead or draining workers. Two extra routes appear:
//
//	POST   /api/v1/fleet/register  worker self-registration {"url":...}
//	GET    /api/v1/fleet           worker topology snapshot
//
// Workers sharing a -cache-dir dedupe cross-process through store
// envelope locks, so each distinct job simulates exactly once fleet-wide
// and figure bytes are identical to a single-daemon run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/backoff"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (use :0 for a random port)")
		cacheDir  = flag.String("cache-dir", "nsd-cache", "persistent result store directory (empty = memory only)")
		cacheMax  = flag.Int64("cache-max", 0, "store size cap in bytes (0 = unlimited)")
		jobs      = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 1, "parallel DES engines per simulated machine (results are byte-identical at any value)")
		scale     = flag.String("scale", "ci", "default scale: ci or paper")
		coreTy    = flag.String("core", "OOO8", "default core type: IO4, OOO4 or OOO8")
		seed      = flag.Uint64("seed", 1, "default input seed")
		queue     = flag.Int("queue", 64, "max admitted (queued+running) tasks before 429")
		maxClient = flag.Int("max-client", 8, "max in-flight tasks per client")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")

		mode        = flag.String("mode", "single", "daemon mode: single, coordinator (dispatch to -workers) or worker")
		workerList  = flag.String("workers", "", "coordinator mode: comma-separated worker base URLs (more can register at runtime)")
		coordinator = flag.String("coordinator", "", "worker mode: coordinator base URL to self-register with")
		advertise   = flag.String("advertise", "", "worker mode: this daemon's reachable base URL (default derived from -addr and the hostname)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "coordinator mode: worker liveness probe period")
		deadAfter   = flag.Duration("dead-after", 0, "coordinator mode: unreachable grace before a worker is declared dead (0 = 3x heartbeat)")
	)
	flag.Parse()

	hcfg, err := harness.ParseConfig(*scale, *coreTy)
	if err != nil {
		log.Fatalf("nsd: %v", err)
	}
	hcfg.Seed = *seed
	hcfg.Jobs = *jobs
	hcfg.Shards = *shards
	s, err := serve.New(serve.Config{
		Harness:       hcfg,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		QueueDepth:    *queue,
		MaxPerClient:  *maxClient,
	})
	if err != nil {
		log.Fatal(err)
	}

	handler := s.Handler()
	var coord *fleet.Coordinator
	switch *mode {
	case "single", "worker":
	case "coordinator":
		var urls []string
		for _, u := range strings.Split(*workerList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		coord = fleet.New(fleet.Options{
			Workers:        urls,
			HeartbeatEvery: *heartbeat,
			DeadAfter:      *deadAfter,
		})
		s.SetRemote(coord.Execute)
		s.SetFleetEnv(func() any { return coord.Snapshot() })
		s.AddMetrics(coord.WriteMetrics)
		coord.Start()
		handler = coord.Wrap(handler)
	default:
		log.Fatalf("nsd: unknown -mode %q (want single, coordinator or worker)", *mode)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	store := "memory only"
	if *cacheDir != "" {
		store = fmt.Sprintf("store %s (%d entries)", *cacheDir, s.Store().Len())
	}
	log.Printf("nsd: %s mode, listening on http://%s — %d workers, %s", *mode, ln.Addr(), s.Exp().Pool().Workers(), store)
	if coord != nil {
		log.Printf("nsd: fleet of %d seed workers, heartbeat %s", coord.Snapshot().Live, *heartbeat)
	}

	if *mode == "worker" && *coordinator != "" {
		self := *advertise
		if self == "" {
			self = deriveAdvertise(ln.Addr())
		}
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := fleet.Register(ctx, *coordinator, self, backoff.Default()); err != nil {
				log.Printf("nsd: fleet registration with %s failed: %v", *coordinator, err)
				return
			}
			log.Printf("nsd: registered with coordinator %s as %s", *coordinator, self)
		}()
	}

	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("nsd: %v — draining (timeout %s, signal again to abort)", sig, *drain)
		go func() {
			<-sigCh
			os.Exit(130)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		s.Shutdown(ctx) // reject new work, cancel queued jobs at the deadline
		if coord != nil {
			coord.Stop()
		}
		srv.Shutdown(ctx) // then close listeners and idle connections
		log.Print("nsd: drained")
	}
}

// deriveAdvertise turns the bound listener address into a base URL other
// hosts can plausibly reach: an unspecified listen IP (":8081") is
// replaced by the hostname.
func deriveAdvertise(addr net.Addr) string {
	ta, ok := addr.(*net.TCPAddr)
	if !ok {
		return "http://" + addr.String()
	}
	host := ta.IP.String()
	if ta.IP == nil || ta.IP.IsUnspecified() {
		host = "127.0.0.1"
		if h, err := os.Hostname(); err == nil && h != "" {
			host = h
		}
	}
	return "http://" + net.JoinHostPort(host, strconv.Itoa(ta.Port))
}
