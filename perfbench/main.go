// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed wall-clock budget, checks every output
// it produces, and prints a stamped record line followed by one JSON
// result line:
//
//	perfbench --workload trials-dense --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no tracing. With --trace 1 the run times the same work untraced
// and then traced, and the result carries the per-layer metrics, which
// are computed from spans the benchmark records around each call into a
// layer's public functions. Nothing inside the program is instrumented
// beyond the engine metrics it already exposes.
//
// README.md in this directory lists the workloads, the metrics, the
// layer each per-layer metric belongs to and the end-to-end metric it
// should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"beepmis/internal/stats"
)

// processStart anchors the first set-up pass: set-up time runs from
// process start to the first timed operation.
var processStart = time.Now()

// metricDef names a metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs. Every workload reports each of them; README.md gives
// each workload's reading (a job, a solve, a request).
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"work_per_cpu_s", "1/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// phaseNames are obs.Phase's labels, in phase order.
var phaseNames = []string{"faults", "eligible_draw", "beep_tally", "propagate", "join", "observe"}

// perLayer are the metrics a traced run reports. A layer a workload
// does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.compile_ms", "ms"},
		{"scenario.encode_ms", "ms"},
		{"scenario.report_bytes", "B"},
		{"graph.build_ms", "ms"},
		{"graph.edges_per_s", "1/s"},
		{"graph.represent_ms", "ms"},
		{"graph.represent_bytes", "B"},
		{"graph.verify_ms", "ms"},
		{"sim.run_ms", "ms"},
		{"sim.rounds", "count"},
		{"sim.node_rounds", "count"},
	}
	for _, p := range phaseNames {
		defs = append(defs, metricDef{"sim.phase." + p + "_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"fault.observe_ms", "ms"},
		metricDef{"experiment.pool_busy_share", "share"},
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.queue_ms", "ms"},
		metricDef{"service.run_ms", "ms"},
		metricDef{"service.result_ms", "ms"},
		metricDef{"service.cache_hit_ratio", "share"},
		metricDef{"service.submissions", "count"},
		metricDef{"service.rejected", "count"},
		metricDef{"service.queue_high_water", "count"},
		metricDef{"load.gen_late_ms_p99", "ms"},
		metricDef{"load.conn_wait_ms", "ms"},
		metricDef{"load.latency_ms_p99", "ms"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l + "_share", "share"})
	}
	return append(defs,
		metricDef{"unattributed_share", "share"},
		metricDef{"trace.overhead_share", "share"},
		metricDef{"failed_share", "share"},
	)
}()

// Rng stream ids under the benchmark seed. Distinct ids keep each kind
// of generated input independent of how many of the others are drawn.
const (
	streamJobSeeds    = 1
	streamWarmupSeeds = 2
	streamGraph       = 3
	streamSolveSeeds  = 4
	streamArrivals    = 5
	streamMix         = 6
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short shrinks every input to a smoke-test size.
	short bool
	// spansDir, when set, receives the traced run's spans.
	spansDir string
}

// outcome is what a workload run hands back.
type outcome struct {
	attempted int
	// wrong counts outputs that failed a correctness check; errors
	// counts operations that failed outright (errors, 429s, timeouts).
	wrong, errors int
	metrics       map[string]float64
	// record holds facts stamped beside the metrics: sample counts,
	// working-set bytes, the result digest.
	record map[string]any
}

func (o *outcome) failed() int { return o.wrong + o.errors }

// workloads maps a workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"trials-dense":  runTrialsDense,
	"solve-rmat":    runSolveRMAT,
	"service-mixed": runServiceMixed,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name: trials-dense, solve-rmat or service-mixed")
		seed     = fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
		seconds  = fs.Float64("seconds", 20, "wall-clock budget of the timed region")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		short    = fs.Bool("short", false, "smoke-test input sizes")
		spans    = fs.String("spans", "", "directory receiving the traced run's spans (JSON lines)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive (got %v)", *seconds)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		short: *short, spansDir: *spans,
	}
	out, err := runner(ctx, cfg)
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return errors.New("no operation completed inside the time budget")
	}
	defs := endToEnd
	if cfg.trace {
		out.metrics["failed_share"] = float64(out.failed()) / float64(out.attempted)
		defs = perLayer
	} else {
		out.record["peak_rss_mb"] = peakRSSMB()
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", cfg.workload, d.name)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	record := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"env": envStamp(), "attempted": out.attempted, "wrong": out.wrong, "errors": out.errors,
		"metrics": metrics,
	}
	for k, v := range out.record {
		record[k] = v
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"record": record}); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(result{
		Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed(), Metrics: metrics,
	})
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// envStamp describes the host and build, so records from different
// machines are not compared as if alike.
func envStamp() map[string]any {
	stamp := map[string]any{
		"goversion":  runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"llc_bytes":  llcBytes(),
		"commit":     commit(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	return stamp
}

// llcBytes reads the size of the highest-level CPU cache from sysfs,
// or returns 0 where sysfs does not describe it.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best, bestLevel int64
	for _, dir := range dirs {
		level, err1 := os.ReadFile(filepath.Join(dir, "level"))
		size, err2 := os.ReadFile(filepath.Join(dir, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		var lv, sz int64
		var suffix string
		if _, err := fmt.Sscan(strings.TrimSpace(string(level)), &lv); err != nil {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimSpace(string(size)), "%d%s", &sz, &suffix); err != nil && sz == 0 {
			continue
		}
		switch suffix {
		case "K":
			sz <<= 10
		case "M":
			sz <<= 20
		}
		if lv > bestLevel {
			best, bestLevel = sz, lv
		}
	}
	return best
}

// commit is the VCS revision the binary was built from, when the build
// saw one; BENCH_COMMIT overrides it for builds from an exported tree.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSampler samples the live heap — the bytes the last garbage
// collection found reachable — after each operation. Its median is
// heap_live_mb. The process's peak RSS (stamped in the record) is one
// extreme sample that moves with where collections happen to fall, and
// the memory the runtime holds swings with its pacing; the live heap
// moves only when the working set does.
type memSampler struct {
	mu     sync.Mutex
	sample []metrics.Sample
	mb     []float64
}

func newMemSampler() *memSampler {
	return &memSampler{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (m *memSampler) add() {
	m.mu.Lock()
	defer m.mu.Unlock()
	metrics.Read(m.sample)
	m.mb = append(m.mb, float64(m.sample[0].Value.Uint64())/(1<<20))
}

func (m *memSampler) median() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return quantile(m.mb, 0.5)
}

// cpuSeconds is the user and system CPU time the process has used.
// The kernel leaves out time the host gave the virtual CPU to another
// guest (steal), which wall time counts.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// liveHeapMB runs a collection and returns the live heap it found.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// releaseMemory returns freed heap to the OS, so a set-up pass that
// replaces a large input does not hold two of them.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setupReps holds each set-up pass's seconds, of CPU time and of wall
// time. setup_s is the median CPU time, for the reason work_per_cpu_s
// divides by CPU time: the host's steal inflates wall time. Between two
// sets of ten trials-dense runs, the median wall time of a set-up pass
// moved by 0.26 with no change to the set-up code.
type setupReps struct{ cpu, wall []float64 }

// setupTimes runs set-up passes times; the first pass is measured from
// process start. A fixed count, rather than passes until some time is
// spent, keeps the median on the same pass on a slow host and a fast
// one: on trials-dense the first four to six passes run about twice as
// long as the rest while the fresh process warms up.
func setupTimes(passes int, setup func() error) (setupReps, error) {
	reps := setupReps{cpu: make([]float64, 0, passes), wall: make([]float64, 0, passes)}
	for i := 0; i < passes; i++ {
		start, cpu0 := time.Now(), cpuSeconds()
		if i == 0 {
			start, cpu0 = processStart, 0
		}
		if err := setup(); err != nil {
			return reps, err
		}
		reps.cpu = append(reps.cpu, cpuSeconds()-cpu0)
		reps.wall = append(reps.wall, time.Since(start).Seconds())
	}
	// The timed region starts on a collected heap, which also gives
	// the live-heap metric its first reading.
	runtime.GC()
	return reps, nil
}

// setupPasses is how many set-up passes a run makes: n for an untraced
// run, one for a traced run (which reports no setup_s) or a smoke test.
func (c config) setupPasses(n int) int {
	if c.short || c.trace {
		return 1
	}
	return n
}

// rateWindows is how many windows a closed loop's run is cut into for
// work_per_cpu_s.
const rateWindows = 5

// windowedRate is a closed loop's work per CPU-second, made robust to
// a burst on the host: the run is cut into rateWindows equal windows by
// operation start time, each window's rate is its work over the CPU
// time of its operations, and the result is the median window's rate.
// Over ten interleaved seeds the whole-run wall-time rate of
// trials-dense spread 0.18, driven by two runs whose p90 job doubled
// for a few seconds.
type windowedRate struct {
	span      time.Duration
	work, cpu [rateWindows]float64
}

func (w *windowedRate) add(at time.Duration, work, cpuSeconds float64) {
	i := min(int(at*rateWindows/w.span), rateWindows-1)
	w.work[i] += work
	w.cpu[i] += cpuSeconds
}

func (w *windowedRate) median() float64 {
	var rates []float64
	for i, cpu := range w.cpu {
		if cpu > 0 {
			rates = append(rates, w.work[i]/cpu)
		}
	}
	return quantile(rates, 0.5)
}

// quantile is the linearly interpolated q-quantile, 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// msSince converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digest accumulates every result byte of a run, so two commits can be
// checked for bit-identical output on a seed.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	var n [8]byte
	for i := range n {
		n[i] = byte(len(b) >> (8 * i))
	}
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
