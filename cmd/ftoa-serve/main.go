// Command ftoa-serve runs the ftoa matching server (internal/serve, whose
// package comment describes the HTTP API and the serving model): it parses
// the flags into a serve.Config, binds the HTTP and wire listeners, and
// turns SIGTERM/SIGINT into a graceful shutdown.
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

	"ftoa/internal/serve"
)

// parsePair parses "NxM" into two positive integers.
func parsePair(s, flagName string) ([2]int, error) {
	parts := strings.SplitN(s, "x", 2)
	if len(parts) != 2 {
		return [2]int{}, fmt.Errorf("bad %s %q: want NxM", flagName, s)
	}
	var out [2]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return [2]int{}, fmt.Errorf("bad %s component %q: want a positive integer", flagName, p)
		}
		out[i] = n
	}
	return out, nil
}

func main() {
	cfg := serve.DefaultConfig()
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&cfg.Algorithm, "alg", cfg.Algorithm, "matching algorithm: greedy, gr, polar, polarop or hybrid")
	flag.Float64Var(&cfg.Window, "window", cfg.Window, "gr batch window in seconds")
	flag.StringVar(&cfg.Mode, "mode", cfg.Mode, "validation mode: strict or assume-guide")
	flag.Float64Var(&cfg.Velocity, "velocity", cfg.Velocity, "worker velocity (units per second)")
	boundsStr := flag.String("bounds", "0,0,100,100", "service area as x0,y0,x1,y1")
	flag.DurationVar(&cfg.Tick, "tick", cfg.Tick, "timer advance interval")
	shards := flag.String("shards", "1x1", "shard grid as NxM (regions served independently)")
	flag.Float64Var(&cfg.Halo, "halo", cfg.Halo, "cross-shard matching reach window in seconds: border pairs shorter than velocity*halo match across regions, as a border task is mirrored into each neighbor region within 2*velocity*halo, capped at its expiry*velocity (typically the task expiry window; 0 keeps regions disjoint)")
	flag.IntVar(&cfg.Retention, "retention", cfg.Retention, "events retained per base-grid shard: /events and /matches read the most recent retention x shards events, held at 32 bytes each (32 MiB at the default on a 4x4 grid)")
	flag.DurationVar(&cfg.Retire, "retire", cfg.Retire, "per-shard arena retirement interval; matched and expired objects are compacted away, bounding memory by the live population (0 disables)")
	flag.StringVar(&cfg.GuidePath, "guide", cfg.GuidePath, "per-cell count history CSV (ftoa-gen -counts format) for guided algorithms")
	guideGrid := flag.String("guide-grid", "", "the count history's area layout as CxR (default: infer a square); the served guide is built on whole blocks of these areas, each axis' block the smallest at least 2 x -guide-expiry x -velocity long, or the whole axis (one area at the defaults: 2 x 60 x 1 exceeds the 100-unit bounds)")
	flag.IntVar(&cfg.GuideDow0, "guide-dow0", cfg.GuideDow0, "weekday (0-6) of the count history's first day, anchoring HP-MSI's weekday feature: 0 = Sunday, as time.Weekday; ftoa-gen histories start on a Monday")
	flag.Float64Var(&cfg.Horizon, "horizon", cfg.Horizon, "guide horizon in seconds (the served day length)")
	flag.Float64Var(&cfg.GuidePatience, "guide-patience", cfg.GuidePatience, "worker patience Dw assumed by the guide (seconds)")
	flag.Float64Var(&cfg.GuideExpiry, "guide-expiry", cfg.GuideExpiry, "task expiry Dr assumed by the guide (seconds)")
	flag.StringVar(&cfg.GuideAnchor, "guide-anchor", cfg.GuideAnchor, "guide slot anchoring: wallclock (7-day week guide keyed to wall-clock day-of-week and time-of-day) or uptime (legacy: the first -horizon seconds of uptime are the served day)")
	flag.StringVar(&cfg.WALDir, "wal", cfg.WALDir, "write-ahead log directory; arrivals and match outcomes are made durable per shard and replayed at boot, so a killed server restarts with its state intact (empty disables durability)")
	flag.StringVar(&cfg.WALSync, "wal-sync", cfg.WALSync, "WAL fsync policy: always (fsync per operation), interval (group commit on -wal-sync-interval) or none (OS page cache only)")
	flag.DurationVar(&cfg.WALSyncInterval, "wal-sync-interval", cfg.WALSyncInterval, "group-commit window for -wal-sync interval (0 = 50ms default)")
	listenWire := flag.String("listen-wire", "", "binary wire-protocol listen address for batched admission over TCP (empty disables); see docs/wire.md")
	flag.IntVar(&cfg.WireMaxConns, "wire-max-conns", cfg.WireMaxConns, "max concurrent wire connections; excess dials are closed at the door (the resilient client retries with backoff)")
	flag.DurationVar(&cfg.WireIdle, "wire-idle", cfg.WireIdle, "wire per-connection idle (read) deadline; a silent peer is dropped after this long")
	flag.DurationVar(&cfg.WireWriteTimeout, "wire-write-timeout", cfg.WireWriteTimeout, "wire per-frame write deadline; a subscriber that cannot drain its event stream this fast is evicted")
	flag.IntVar(&cfg.WireDedupWindow, "wire-dedup-window", cfg.WireDedupWindow, "idempotency seqs remembered per wire client, 40 bytes each once the window is full (320 KiB per client at the default); a batch re-sent within the window replays its original receipts")
	flag.IntVar(&cfg.WireDedupClients, "wire-dedup-clients", cfg.WireDedupClients, "wire client idempotency windows retained (LRU-evicted beyond this)")
	flag.IntVar(&cfg.Ring, "admit-ring", cfg.Ring, "per-shard admission lane capacity shared by HTTP and wire arrivals; a full lane answers 503/BUSY (backpressure bound)")
	flag.BoolVar(&cfg.Rebalance, "rebalance", cfg.Rebalance, "adapt the shard topology online: split regions whose arrival rate exceeds -rebalance-split into a finer sub-grid and merge cold sibling quads back, migrating live state (see docs/rebalance.md)")
	flag.Float64Var(&cfg.RebalSplit, "rebalance-split", cfg.RebalSplit, "per-region arrival rate (admissions/sec) above which the region is split")
	flag.Float64Var(&cfg.RebalMerge, "rebalance-merge", cfg.RebalMerge, "combined arrival rate below which four sibling sub-regions merge back (0 disables merging; must be <= split/4)")
	flag.IntVar(&cfg.RebalDepth, "rebalance-depth", cfg.RebalDepth, "max quarterings per base grid cell (clamped to 6)")
	flag.DurationVar(&cfg.RebalCooldown, "rebalance-cooldown", cfg.RebalCooldown, "minimum interval between topology changes")
	flag.DurationVar(&cfg.RebalTau, "rebalance-tau", cfg.RebalTau, "arrival-rate EWMA time constant (larger = smoother, slower to react)")
	flag.BoolVar(&cfg.RebalForecast, "rebalance-forecast", cfg.RebalForecast, "also forecast per-region demand with HP-MSI trained on the -guide count history, splitting ahead of predicted rushes")
	flag.Parse()

	parts := strings.Split(*boundsStr, ",")
	if len(parts) != 4 {
		log.Fatalf("bad -bounds %q: want x0,y0,x1,y1", *boundsStr)
	}
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &cfg.Bounds[i]); err != nil {
			log.Fatalf("bad -bounds component %q: %v", p, err)
		}
	}
	var err error
	if cfg.Shards, err = parsePair(*shards, "-shards"); err != nil {
		log.Fatal(err)
	}
	if *guideGrid != "" {
		if cfg.GuideGrid, err = parsePair(*guideGrid, "-guide-grid"); err != nil {
			log.Fatal(err)
		}
	}

	// Bind before building the server: WAL replay can take a while on a
	// long history, and the gate makes that visible as 503 "recovering"
	// instead of a connection refused.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	gate := serve.NewBootGate()
	// Header and idle deadlines shed peers that dial and stall (the wire
	// listener applies the analogous bounds itself); request handlers stay
	// un-deadlined — admission latency is bounded by the ring, not a timer.
	hs := &http.Server{
		Handler:           gate,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The wire listener starts before the gate opens; recovery already
	// completed in New, so ring admissions observe the replayed state.
	if *listenWire != "" {
		wln, err := net.Listen("tcp", *listenWire)
		if err != nil {
			log.Fatal(err)
		}
		srv.StartWire(wln)
	}
	srv.StartTick()
	gate.Ready(srv.Handler())
	log.Printf("ftoa-serve: %s matching on %s (mode=%s velocity=%g bounds=%s shards=%s halo=%gs retire=%s wal=%q rebalance=%v)",
		cfg.Algorithm, ln.Addr(), cfg.Mode, cfg.Velocity, *boundsStr, *shards, cfg.Halo, cfg.Retire, cfg.WALDir, cfg.Rebalance)
	if cfg.Rebalance {
		log.Printf("ftoa-serve: adaptive topology: split > %g/s, merge < %g/s, depth <= %d, cooldown %s, tau %s, forecast=%v",
			cfg.RebalSplit, cfg.RebalMerge, cfg.RebalDepth, cfg.RebalCooldown, cfg.RebalTau, cfg.RebalForecast)
	}

	// Graceful shutdown; see serve.Server.Shutdown for the order.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("ftoa-serve: %v: draining", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx, hs); err != nil {
		log.Fatalf("ftoa-serve: WAL close: %v", err)
	}
	log.Print("ftoa-serve: drained, WAL closed")
}
