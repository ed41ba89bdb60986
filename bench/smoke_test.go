package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// The one test that starts processes: a one-second pos-cpu pass through
// the real path (build, three nodes, both phases, oracle, teardown),
// checked against BENCHMARK.json. Everything longer is `go run ./bench
// -quick`.
func TestSmokePosCPU(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	if fsType("/dev/shm") != "tmpfs" {
		t.Skip("needs a tmpfs at /dev/shm")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	man, err := readManifest(e.root)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("pos-cpu")
	p, err := e.runPass(w, 1, plan{setups: 1, warm: 200 * time.Millisecond, paced: time.Second, sat: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.attempted < int(2*w.rate) {
		t.Errorf("attempted %d failed %d, want at least %d and 0", p.attempted, p.failed, int(2*w.rate))
	}
	for _, d := range man.EndToEnd {
		m, ok := p.m[d.Name]
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json gates %s, which the pass did not produce", d.Name)
		case m.unit != d.Unit:
			t.Errorf("%s: unit %q in BENCHMARK.json, %q measured", d.Name, d.Unit, m.unit)
		case m.value <= 0:
			t.Errorf("%s = %v, want a positive value", d.Name, m.value)
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	for i, mw := range man.Workloads {
		if mw.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, mw.Name, workloads[i].name)
		}
	}
	if left, _ := filepath.Glob(fmt.Sprintf("/dev/shm/avbench-%d-*", os.Getpid())); len(left) > 0 {
		t.Errorf("left %v behind", left)
	}
}
