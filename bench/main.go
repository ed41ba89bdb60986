// Command bench is avdb's one benchmark: it builds cmd/avnode, runs three
// real avnode processes on loopback, drives them through the client text
// protocol and the admin HTTP port only, checks their outputs, and
// reports what a client sees next to a per-layer budget. See README.md.
//
//	go run ./bench                      every workload, both passes
//	go run ./bench -quick               the same with 5 s windows
//	go run ./bench -repeat 10           spreads and bounds over 10 seeds
//	go run ./bench --workload pos-cpu --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "run this workload only and end with one JSON result line (empty = all of them, both passes)")
		seed    = flag.Uint64("seed", 1, "seed of the op generators")
		seconds = flag.Int("seconds", 0, "seconds one pass measures (0 = BENCHMARK.json's run_seconds)")
		traced  = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced pass and layer probe")
		quick   = flag.Bool("quick", false, "5 s windows: validates schema and oracle, numbers are not baselines")
		repeat  = flag.Int("repeat", 0, "run the end-to-end pass of every workload this many times, one seed each, then print spreads and write bounds into BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	// Two issuing goroutines is the load shape, and they need a processor
	// each beside the nodes.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "bench: %d CPU: the load shape is two connections from two goroutines, refusing to run\n", runtime.NumCPU())
		return 1
	}
	// The two writers sit on threads of their own; four Ps leave one for
	// each reader and two for the rest. With two, a reader waited for a P
	// behind a spinning writer and the median rose by a third.
	runtime.GOMAXPROCS(4)

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	man, err := readManifest(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *quick:
		*seconds = 5
	case *seconds == 0:
		*seconds = man.RunSeconds
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	b := &bench{env: e, man: man, seconds: *seconds}
	switch {
	case *name != "":
		err = b.single(*name, *seed, *traced == 1)
	case *repeat > 0:
		err = b.repeat(*seed, *repeat)
	default:
		err = b.all(*seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

type bench struct {
	env     *env
	man     *manifest
	seconds int
}

func (b *bench) window(share float64) time.Duration {
	return time.Duration(float64(b.seconds) * share * float64(time.Second))
}

// e2ePlan splits the measured seconds three to one between the paced and
// the closed-loop phase, after a warm-up that is not measured.
func (b *bench) e2ePlan() plan {
	// setup_s is the median of three set-ups, two of them torn down
	// unused. A short validation run makes one and warms up for less.
	warm, setups := 2*time.Second, 3
	if b.seconds < 10 {
		warm, setups = time.Second, 1
	}
	return plan{setups: setups, warm: warm, paced: b.window(0.75), sat: b.window(0.25)}
}

// header records what the numbers depend on besides the code.
func (b *bench) header(w workload, seed uint64, p *pass) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("# %s seed=%d seconds=%d streams=%016x\n", w.name, seed, b.seconds, streamHash(w, seed, 10000))
	fmt.Printf("# %s num_cpu=%d gomaxprocs=%d kernel=%s data_fs=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), strings.TrimSpace(string(kernel)), p.fs)
	fmt.Printf("# why: %s\n", w.why)
	if p.noRealtime {
		fmt.Println("# no real-time priority for the load generator's writers: expect loadgen.sched_lag_* of 0.1 ms and more")
	}
	if w.admin {
		fmt.Println("# nodes run with -admin in every pass: /read/* lives on the admin port, so that is what read clients pay today")
	}
}

func report(title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("## %s\n", title)
	for _, n := range names {
		fmt.Printf("%-36s %16.4f %-6s n=%d\n", n, m[n].value, m[n].unit, m[n].n)
	}
}

func invalid(p *pass) error {
	if len(p.invalid) == 0 {
		return nil
	}
	return fmt.Errorf("invalid run, not a slow one: %s", strings.Join(p.invalid, "; "))
}

// endToEnd runs the untraced pass of one workload.
func (b *bench) endToEnd(w workload, seed uint64) (*pass, error) {
	p, err := b.env.runPass(w, seed, b.e2ePlan())
	if err != nil {
		return nil, err
	}
	b.header(w, seed, p)
	report("end-to-end pass (untraced)", p.m)
	return p, invalid(p)
}

// layered runs a short untraced pass, the traced pass and the layer
// probe, and merges their metrics. End-to-end numbers come from the
// untraced pass only; the traced pass contributes what it scraped.
func (b *bench) layered(w workload, seed uint64) (*pass, error) {
	warm := time.Second
	plain, err := b.env.runPass(w, seed, plan{setups: 1, warm: warm, paced: b.window(0.3), sat: b.window(0.1)})
	if err != nil {
		return nil, err
	}
	traced, err := b.env.runPass(w, seed, plan{traced: true, setups: 1, warm: warm, paced: b.window(0.4), restart: true})
	if err != nil {
		return nil, err
	}
	probe, err := b.env.runProbe(w, seed, b.window(0.2))
	if err != nil {
		return nil, err
	}
	b.header(w, seed, plain)
	p0, p1 := plain.m["update_p50_us"].value, traced.m["update_p50_us"].value
	out := &pass{m: metrics{}, attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed,
		invalid: append(plain.invalid, traced.invalid...)}
	for n, v := range plain.m {
		out.m[n] = v
	}
	for n, v := range traced.m {
		if _, client := plain.m[n]; !client {
			out.m[n] = v
		}
	}
	for n, v := range probe {
		out.m[n] = v
	}
	if p0 > 0 {
		out.m.set("trace.overhead_frac", (p1-p0)/p0, "ratio", traced.m["update_p50_us"].n)
	}
	// The probe flushes to an idle device, the nodes to one they share:
	// put both flush rungs at what the nodes waited and see how much of
	// the served update the ladder then explains. Far from 1 means a layer
	// is missing from it.
	if served := out.m["site.update_p50_us"].value; served > 0 {
		idle := out.m["layerprobe.self_sum_us"]
		loaded := idle.value + 2*(out.m["wal.sync_wait_p50_us"].value-out.m["wal.sync_us"].value)
		out.m.set("layerprobe.ladder_cover_frac", loaded/served, "ratio", idle.n)
	}
	report("traced pass: client-side (short untraced window), scraped and probed layers", out.m)
	return out, invalid(out)
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) single(name string, seed uint64, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var p *pass
	var err error
	var want []manifestDecl
	if traced {
		want = b.man.PerLayer
		p, err = b.layered(w, seed)
	} else {
		for _, d := range b.man.EndToEnd {
			want = append(want, d.manifestDecl)
		}
		p, err = b.endToEnd(w, seed)
	}
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]resultValue{}}
	for _, d := range want {
		v, ok := p.m[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names %q, which this pass did not produce", d.Name)
		}
		if v.unit != d.Unit {
			return fmt.Errorf("BENCHMARK.json gives %q the unit %q, the benchmark measures %q", d.Name, d.Unit, v.unit)
		}
		res.Metrics[d.Name] = resultValue{Value: v.value, Unit: v.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (b *bench) all(seed uint64) error {
	start := time.Now()
	for _, w := range workloads {
		if _, err := b.endToEnd(w, seed); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if _, err := b.layered(w, seed); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Println()
	}
	fmt.Printf("# all workloads done in %.0f s\n", time.Since(start).Seconds())
	return nil
}

// manifest is BENCHMARK.json. The benchmark computes every metric it
// knows; the manifest says which are gated end to end and which are
// reported per layer, so demoting a noisy metric is an edit there alone.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []manifestE2E  `json:"end_to_end"`
	PerLayer   []manifestDecl `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestE2E struct {
	manifestDecl
	Bound float64 `json:"bound"`
}

func manifestPath(root string) string { return filepath.Join(root, "BENCHMARK.json") }

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(manifestPath(root))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}
