package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const numSites = 3

// env is where this run builds, writes and cleans up. Everything sits
// under the repository root except the tmpfs data dirs of pos-cpu.
type env struct {
	root   string // directory holding go.mod
	bin    string // built binaries
	data   string // data dirs on the checkout's filesystem
	out    string // node logs and span files (bench/out)
	avnode string
	probe  string

	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
	dirs  map[string]struct{}
}

func newEnv() (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, errors.New("no go.mod above the working directory: run from the avdb checkout")
		}
		root = parent
	}
	e := &env{
		root:  root,
		bin:   filepath.Join(root, ".bench_build", "bin"),
		data:  filepath.Join(root, ".bench_build", "data"),
		out:   filepath.Join(root, "bench", "out"),
		procs: map[*exec.Cmd]struct{}{},
		dirs:  map[string]struct{}{},
	}
	e.avnode = filepath.Join(e.bin, "avnode")
	e.probe = filepath.Join(e.bin, "layerprobe")
	for _, d := range []string{e.bin, e.data, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// build compiles pkg into out. With a warm build cache this is the
// toolchain's up-to-date check, which is what every set-up pays.
func (e *env) build(out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = e.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, msg)
	}
	return nil
}

// cleanup kills every live node group and removes every data dir. It is
// what exit, SIGINT and panic all run.
func (e *env) cleanup() {
	e.mu.Lock()
	procs, dirs := e.procs, e.dirs
	e.procs, e.dirs = map[*exec.Cmd]struct{}{}, map[string]struct{}{}
	e.mu.Unlock()
	for cmd := range procs {
		killGroup(cmd)
	}
	for d := range dirs {
		os.RemoveAll(d)
	}
}

// guard is deferred at the top of every goroutine the benchmark starts:
// a panic there would otherwise end the process with the nodes, which
// sit in process groups of their own, still running.
func (e *env) guard() {
	if r := recover(); r != nil {
		if e != nil { // nil in tests that start no node
			e.cleanup()
		}
		panic(r)
	}
}

func killGroup(cmd *exec.Cmd) {
	if cmd.Process != nil {
		// Negative pid: the whole group the node was started in.
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
	}
	cmd.Wait() //nolint:errcheck // killed on purpose
}

// node is one running avnode.
type node struct {
	id     int
	args   []string
	cmd    *exec.Cmd
	client string // text-protocol address
	admin  string // admin HTTP address, "" when off
	dir    string
	log    string
	up     chan struct{} // closed when the node printed "up"
	exited chan struct{} // closed when stderr reached EOF
}

// cluster is three avnode processes of one workload.
type cluster struct {
	env   *env
	w     workload
	nodes []*node
	fs    string // filesystem type of the data dirs

	release func() // removes the data dirs
}

// freePorts asks the kernel for n unused loopback ports. They are
// released before the nodes bind them; a collision fails set-up loudly.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// matching mount point wins).
func fsType(path string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fld := strings.Fields(sc.Text())
		if len(fld) < 3 {
			continue
		}
		mp := fld[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, fld[2]
		}
	}
	return typ
}

// scratch makes a fresh directory for w's data, on /dev/shm for a tmpfs
// workload and under the checkout otherwise, and registers it for
// cleanup. release removes it.
func (e *env) scratch(w workload, name string) (dir string, release func(), err error) {
	parent := e.data
	if w.tmpfs {
		parent = "/dev/shm"
		if fsType(parent) != "tmpfs" {
			return "", nil, fmt.Errorf("%s needs a tmpfs at /dev/shm so that flushes are free; none is mounted", w.name)
		}
	}
	dir = filepath.Join(parent, name)
	e.mu.Lock()
	e.dirs[dir] = struct{}{}
	e.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		e.mu.Lock()
		delete(e.dirs, dir)
		e.mu.Unlock()
	}, nil
}

var clusterSeq int

// startCluster spawns the three nodes of w on fresh data dirs and waits
// until each has printed "up". traced adds -admin to every node.
func (e *env) startCluster(w workload, traced bool) (*cluster, error) {
	clusterSeq++
	base, release, err := e.scratch(w, fmt.Sprintf("avbench-%d-%d", os.Getpid(), clusterSeq))
	if err != nil {
		return nil, err
	}
	c := &cluster{env: e, w: w, release: release, fs: fsType(base)}

	ports, err := freePorts(3 * numSites)
	if err != nil {
		return nil, fmt.Errorf("pick ports: %w", err)
	}
	addr := func(p int) string { return fmt.Sprintf("127.0.0.1:%d", p) }
	admin := traced || w.admin
	for i := 0; i < numSites; i++ {
		var peers []string
		for j := 0; j < numSites; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j, addr(ports[j])))
			}
		}
		n := &node{
			id:     i,
			client: addr(ports[numSites+i]),
			dir:    filepath.Join(base, fmt.Sprintf("n%d", i)),
			log:    filepath.Join(e.out, fmt.Sprintf("%s-n%d.log", w.name, i)),
		}
		n.args = []string{
			"-id", strconv.Itoa(i),
			"-listen", addr(ports[i]),
			"-peers", strings.Join(peers, ","),
			"-client", n.client,
			"-dir", n.dir,
			"-persist-av",
			"-seed-items", strconv.Itoa(w.keys),
			"-seed-initial", strconv.FormatInt(w.initial, 10),
			"-seed-nonregular", strconv.FormatFloat(w.nonRegular, 'f', -1, 64),
			"-flush-ms", "500",
		}
		if w.partitions > 0 {
			n.args = append(n.args, "-partitions", strconv.Itoa(w.partitions), "-rf", strconv.Itoa(w.rf))
		}
		if admin {
			n.admin = addr(ports[2*numSites+i])
			n.args = append(n.args, "-admin", n.admin)
		}
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		if err := e.spawn(n, false); err != nil {
			c.stop()
			return nil, err
		}
	}
	for _, n := range c.nodes {
		if err := n.waitUp(30 * time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// spawn starts n in its own process group with stderr teed into its log
// file. restart appends to the log instead of truncating it.
func (e *env) spawn(n *node, restart bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if restart {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	logf, err := os.OpenFile(n.log, flags, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(e.avnode, n.args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start node %d: %w", n.id, err)
	}
	e.mu.Lock()
	e.procs[cmd] = struct{}{}
	e.mu.Unlock()
	n.cmd, n.up, n.exited = cmd, make(chan struct{}), make(chan struct{})
	marker := []byte(fmt.Sprintf("site %d up", n.id))
	// Ends at EOF on the pipe, that is when the node has exited.
	go func(up, exited chan struct{}) {
		defer close(exited)
		defer logf.Close()
		br := bufio.NewReader(stderr)
		seen := false
		for {
			line, err := br.ReadBytes('\n')
			logf.Write(line) //nolint:errcheck // diagnostics only
			if !seen && bytes.Contains(line, marker) {
				seen = true
				close(up)
			}
			if err != nil {
				return
			}
		}
	}(n.up, n.exited)
	return nil
}

func (n *node) waitUp(limit time.Duration) error {
	select {
	case <-n.up:
		return nil
	case <-n.exited:
		return fmt.Errorf("node %d exited before it was up:\n%s", n.id, tail(n.log))
	case <-time.After(limit):
		return fmt.Errorf("node %d not up after %v:\n%s", n.id, limit, tail(n.log))
	}
}

// alive reports whether the node process is still running.
func (n *node) alive() bool {
	select {
	case <-n.exited:
		return false
	default:
		return true
	}
}

func (e *env) kill(n *node) {
	e.mu.Lock()
	delete(e.procs, n.cmd)
	e.mu.Unlock()
	killGroup(n.cmd)
	<-n.exited
}

// stop kills the nodes and removes the data dirs.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		if n.cmd != nil {
			c.env.kill(n)
		}
	}
	c.release()
}

// crashed returns an error naming the first node that is no longer
// running, with the end of its stderr.
func (c *cluster) crashed() error {
	for _, n := range c.nodes {
		if !n.alive() {
			return fmt.Errorf("node %d crashed:\n%s", n.id, tail(n.log))
		}
	}
	return nil
}

func (c *cluster) admins() []string {
	a := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		a[i] = n.admin
	}
	return a
}

// tail returns the last lines of a log file for an error message.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// usage is a point-in-time reading of what the three nodes have cost.
type usage struct {
	cpu  time.Duration // utime+stime summed over nodes
	rss  float64       // resident set, MB, summed over nodes
	disk int64         // bytes under the three data dirs
}

// clkTck is USER_HZ, which Linux has fixed at 100 on every architecture
// Go supports.
const clkTck = 100

func (c *cluster) usage() (usage, error) {
	var u usage
	for _, n := range c.nodes {
		pid := n.cmd.Process.Pid
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return u, fmt.Errorf("node %d: %w", n.id, err)
		}
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th of the whole line.
		rest := stat[bytes.LastIndexByte(stat, ')')+1:]
		f := strings.Fields(string(rest))
		if len(f) < 22 {
			return u, fmt.Errorf("node %d: short /proc stat", n.id)
		}
		ut, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		u.cpu += time.Duration(ut+st) * time.Second / clkTck
		rssPages, _ := strconv.ParseInt(f[21], 10, 64)
		u.rss += float64(rssPages*int64(os.Getpagesize())) / (1 << 20)

		err = filepath.WalkDir(n.dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				// A segment renamed or a checkpoint removed mid-walk.
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
				u.disk += info.Size()
			}
			return nil
		})
		if err != nil {
			return u, err
		}
	}
	return u, nil
}

// restart kills node i with SIGKILL, starts it again on the same data
// dir and returns how long it took to print "up": WAL and AV journal
// replay as a client would wait for it.
func (c *cluster) restart(i int) (time.Duration, error) {
	n := c.nodes[i]
	c.env.kill(n)
	start := time.Now()
	if err := c.env.spawn(n, true); err != nil {
		return 0, err
	}
	if err := n.waitUp(60 * time.Second); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
