package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// probeOps is how many update ops of the workload's streams the layer
// probe gets to replay; it cycles through them.
const probeOps = 4096

// probeOutput is what bench/layerprobe prints.
type probeOutput struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	} `json:"metrics"`
	Notes []string `json:"notes"`
}

// runProbe builds and runs bench/layerprobe on the workload's own op
// stream and filesystem. The probe is a separate program because it
// calls avdb's internal packages, which the end-to-end driver must not:
// when a later change reshapes a layer's functions only the probe has to
// follow.
func (e *env) runProbe(w workload, seed uint64, budget time.Duration) (metrics, error) {
	if err := e.build(e.probe, "./bench/layerprobe"); err != nil {
		return nil, err
	}
	opsPath := filepath.Join(e.out, "ops-"+w.name+".txt")
	f, err := os.Create(opsPath)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	a, b := w.streams(seed)
	for n := 0; n < probeOps; {
		for _, o := range [2]op{a(), b()} {
			if o.kind == opUpdate {
				fmt.Fprintf(bw, "%s %d\n", keyName(o.key), o.delta)
				n++
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	dir, release, err := e.scratch(w, fmt.Sprintf("avbench-probe-%d", os.Getpid()))
	if err != nil {
		return nil, err
	}
	defer release()

	cmd := exec.Command(e.probe,
		"-ops", opsPath,
		"-dir", dir,
		"-keys", fmt.Sprint(w.keys),
		"-initial", fmt.Sprint(w.initial),
		"-budget", budget.String(),
		"-spans", filepath.Join(e.out, "trace-"+w.name+".json"))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = os.Stderr
	e.mu.Lock()
	e.procs[cmd] = struct{}{}
	e.mu.Unlock()
	raw, err := cmd.Output()
	e.mu.Lock()
	delete(e.procs, cmd)
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("layerprobe: %w", err)
	}
	var out probeOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("layerprobe output: %w", err)
	}
	m := metrics{}
	for name, v := range out.Metrics {
		m.set(name, v.Value, v.Unit, v.N)
	}
	for _, n := range out.Notes {
		fmt.Println("# layerprobe:", n)
	}
	return m, nil
}
