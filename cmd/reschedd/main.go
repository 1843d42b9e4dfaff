// Command reschedd runs the rescheduling runtime's entities over real
// TCP/IP with the XML protocol, the way the paper deployed them across its
// cluster: a registry/scheduler on one machine, and a monitor on every other
// machine, reading real system information from /proc. It runs no
// commander, so the registry orders no migrations: it logs the protocol
// traffic and its own events, and every 30 s each host's state.
//
// Registry (central host):
//
//	reschedd -role registry -listen :7070
//
// Durable registry (survives crashes without re-registration; pass the same
// directory on restart and the soft state replays from the change-log):
//
//	reschedd -role registry -listen :7070 -store /var/lib/reschedd -snapshot-every 256
//
// Monitor (every monitored host):
//
//	reschedd -role monitor -registry central:7070 -rules my.rules -interval 10s
//
// The monitor gathers from the local /proc, evaluates its rule file and
// pushes soft-state refreshes; the registry tracks their leases and states
// and answers a candidate request with a first-fit destination. Process migration itself needs
// migration-enabled applications (see the examples); this daemon
// demonstrates the monitoring/registration plane on real hosts.
//
// Either role serves observability endpoints when -metrics is set:
//
//	reschedd -role registry -listen :7070 -metrics :8081
//	curl localhost:8081/metrics          # Prometheus text exposition
//	go tool pprof localhost:8081/debug/pprof/profile
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
)

func main() {
	role := flag.String("role", "", "registry | monitor")
	listen := flag.String("listen", ":7070", "registry: listen address")
	policyPath := flag.String("policy", "", "registry: migration policy file (pl_* format); empty uses the state-based default")
	storeDir := flag.String("store", "", "registry: change-log directory for crash-consistent restarts; empty runs soft-state only")
	snapshotEvery := flag.Int("snapshot-every", 256, "registry: compact the change-log into a snapshot every N records (with -store)")
	regAddr := flag.String("registry", "", "monitor: registry address host:port")
	rulesPath := flag.String("rules", "", "monitor: rule file (rl_* format); empty uses built-in load/proc rules")
	interval := flag.Duration("interval", 10*time.Second, "monitor: monitoring frequency")
	procRoot := flag.String("proc", "/proc", "monitor: proc filesystem root")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :8081); empty disables")
	flag.Parse()

	mreg := metrics.NewRegistry()
	serveMetrics(*metricsAddr, mreg)

	switch *role {
	case "registry":
		runRegistry(*listen, *policyPath, *storeDir, *snapshotEvery, mreg)
	case "monitor":
		runMonitor(*regAddr, *rulesPath, *interval, *procRoot, mreg)
	default:
		fmt.Fprintln(os.Stderr, "reschedd: -role must be registry or monitor")
		flag.Usage()
		os.Exit(2)
	}
}

// serveMetrics starts the observability endpoint: Prometheus text on
// /metrics and the standard pprof handlers on /debug/pprof/. Both roles
// share it; an empty address disables it.
func serveMetrics(addr string, mreg *metrics.Registry) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := mreg.WritePrometheus(w); err != nil {
			log.Printf("reschedd: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("reschedd: metrics server: %v", err)
		}
	}()
	log.Printf("serving /metrics and /debug/pprof on %s", addr)
}

// loadPolicy reads the policy file; the last policy in it rules. No path
// means the state-based default.
func loadPolicy(path string) (*rules.MigrationPolicy, error) {
	if path == "" {
		return nil, nil
	}
	parsed, err := rules.ParsePolicyFile(path)
	if err != nil {
		return nil, err
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("policy file %s holds no policies", path)
	}
	return parsed[len(parsed)-1], nil
}

func runRegistry(listen, policyPath, storeDir string, snapshotEvery int, mreg *metrics.Registry) {
	policy, err := loadPolicy(policyPath)
	if err != nil {
		log.Fatalf("reschedd: policy: %v", err)
	}
	if policy != nil {
		log.Printf("using migration policy %q", policy.Name)
	}
	regOpts := []registry.Option{
		registry.WithName("registry"),
		registry.WithPolicy(policy),
		registry.WithMetrics(mreg),
		registry.WithEvents(metrics.SinkFunc(func(e metrics.Event) {
			log.Printf("decision: %s", e)
		})),
	}
	var store *persist.FileStore
	if storeDir != "" {
		store, err = persist.OpenFileStore(storeDir, persist.FileConfig{})
		if err != nil {
			log.Fatalf("reschedd: store: %v", err)
		}
		defer store.Close()
		regOpts = append(regOpts,
			registry.WithStore(store),
			registry.WithSnapshotEvery(snapshotEvery))
		log.Printf("durable registry: change-log in %s (snapshot every %d records, epoch %d)",
			storeDir, snapshotEvery, store.Epoch())
	}
	// Pre-create the decision-latency histogram so /metrics serves it
	// (empty) before the first placement; the registry's counters are
	// created by its constructor.
	mreg.Histogram(registry.MetricDecideSeconds)
	reg := registry.NewRegistry(regOpts...)
	srv, err := proto.NewServer("registry", listen, loggingHandler(reg.Handler()))
	if err != nil {
		if store != nil {
			store.Close() // log.Fatalf exits without running the deferred Close
		}
		log.Fatalf("reschedd: listen: %v", err)
	}
	defer srv.Close()
	log.Printf("registry/scheduler listening on %s", srv.Addr())

	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-tick.C:
			for _, h := range reg.Hosts() {
				log.Printf("  host %-16s state=%-11s load1=%.2f procs=%d last-seen=%s",
					h.Name, h.State, h.Status.Load1, h.Status.NumProcs,
					h.LastSeen.Format(time.TimeOnly))
			}
		case <-sig:
			log.Print("registry shutting down")
			return
		}
	}
}

func loggingHandler(next proto.Handler) proto.Handler {
	return func(m *proto.Message) (*proto.Message, error) {
		if m.Type != proto.TypeStatus {
			log.Printf("<- %s from %s", m.Type, m.From)
		}
		return next(m)
	}
}

// clientReporter adapts a proto client to the monitor's Reporter.
type clientReporter struct {
	cli *proto.Client
}

func (c *clientReporter) RegisterHost(host string, static proto.StaticInfo) error {
	_, err := c.cli.Call(&proto.Message{Type: proto.TypeRegister, Static: &static})
	return err
}

func (c *clientReporter) ReportStatus(host string, status proto.Status) error {
	_, err := c.cli.Call(&proto.Message{Type: proto.TypeStatus, Status: &status})
	return err
}

func (c *clientReporter) UnregisterHost(host string) error {
	_, err := c.cli.Call(&proto.Message{Type: proto.TypeUnregister})
	return err
}

func runMonitor(regAddr, rulesPath string, interval time.Duration, procRoot string, mreg *metrics.Registry) {
	if regAddr == "" {
		log.Fatal("reschedd: -registry is required for the monitor role")
	}
	host, _ := os.Hostname()
	cli, err := proto.DialOptions(host, regAddr, proto.Options{Metrics: mreg})
	if err != nil {
		log.Fatalf("reschedd: dial registry: %v", err)
	}
	defer cli.Close()

	engine := rules.NewEngine(nil)
	if rulesPath != "" {
		if _, err := engine.LoadFile(rulesPath); err != nil {
			log.Fatalf("reschedd: rules: %v", err)
		}
	} else {
		for _, r := range []*rules.Rule{
			{Number: 1, Name: "loadAverage", Type: rules.Simple, Script: "loadAvg.sh",
				Param: "1", Operator: rules.OpGreater, Busy: 1, OverLd: 2},
			{Number: 2, Name: "numProcs", Type: rules.Simple, Script: "numProcs.sh",
				Operator: rules.OpGreater, Busy: 400, OverLd: 600},
		} {
			if err := engine.Add(r); err != nil {
				log.Fatalf("reschedd: rules: %v", err)
			}
		}
	}

	// Pre-create the cycle-latency histogram so /metrics serves it (empty)
	// before the first monitoring cycle.
	mreg.Histogram(monitor.MetricCycleSeconds)
	mon, err := monitor.NewMonitor(host, sysinfo.NewProcSource(procRoot),
		monitor.WithEngine(engine),
		monitor.WithReporter(&clientReporter{cli: cli}),
		monitor.WithDefaultFrequency(interval),
		monitor.WithMetrics(mreg),
	)
	if err != nil {
		log.Fatalf("reschedd: monitor: %v", err)
	}
	if err := mon.Start(); err != nil {
		log.Fatalf("reschedd: start: %v", err)
	}
	log.Printf("monitor on %s reporting to %s every %s", host, regAddr, interval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	mon.Stop()
	log.Print("monitor shutting down")
}
