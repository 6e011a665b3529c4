// Package chaostest boots a real multi-process budgetwfd cluster —
// one journal-backed coordinator plus N shard workers, compiled from
// the enclosing module — and injects the failures the control plane
// claims to survive: SIGKILL of a worker mid-sweep and a kill-restart
// of the coordinator itself. The scenario driver (scenario.go) then
// checks the survivable-crash contract end to end: the merged job
// result must be byte-identical to an undisturbed single-process run,
// and the journal must have been compacted to a snapshot plus a
// bounded tail.
//
// Both the automated chaos test (chaos_test.go) and `loadgen -chaos`
// drive clusters through this package, so the interactive harness and
// CI exercise the same code path.
package chaostest

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// ClusterConfig sizes a cluster. The zero value of every field has a
// usable default; Dir and Bin are filled by StartCluster when empty.
type ClusterConfig struct {
	// Workers is the number of shard-worker processes (default 3).
	Workers int
	// Dir is the scratch directory holding the journal, logs and the
	// compiled binary; a temp dir is created when empty.
	Dir string
	// Bin is the budgetwfd binary; compiled from the module when empty.
	Bin string
	// HeartbeatTTL is the coordinator's worker-liveness TTL (default
	// 1s — short, so a SIGKILLed worker is noticed quickly).
	HeartbeatTTL time.Duration
	// HeartbeatInterval is how often workers re-register (default
	// 200ms).
	HeartbeatInterval time.Duration
	// StealAfter is the speculative re-execution age (default 2s).
	StealAfter time.Duration
	// SnapshotEvery is the journal compaction threshold in tail
	// records (default 8 — low, so compaction provably happens within
	// one scenario).
	SnapshotEvery int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Proc is one managed daemon process.
type Proc struct {
	Name    string // "coordinator" or "worker0"…
	URL     string // base URL it serves on
	LogPath string // stderr capture, for post-mortems
	cmd     *exec.Cmd
	logFile *os.File
}

// Cluster is a running multi-process budgetwfd deployment.
type Cluster struct {
	Config      ClusterConfig
	Coord       *Proc
	WorkerProcs []*Proc

	coordPort   int
	workerPorts []int
}

func (c *Cluster) logf(format string, args ...any) {
	if c.Config.Logf != nil {
		c.Config.Logf(format, args...)
	}
}

// CoordURL is the coordinator's base URL; it is stable across
// coordinator restarts (the restarted process rebinds the same port).
func (c *Cluster) CoordURL() string {
	return fmt.Sprintf("http://127.0.0.1:%d", c.coordPort)
}

// JournalPath is the coordinator's journal file.
func (c *Cluster) JournalPath() string { return filepath.Join(c.Config.Dir, "jobs.jsonl") }

// SnapshotPath is the journal's snapshot sibling.
func (c *Cluster) SnapshotPath() string { return c.JournalPath() + ".snap" }

// moduleRoot walks up from the working directory to the enclosing
// go.mod, the directory `go build ./cmd/budgetwfd` must run in.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("chaostest: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// BuildDaemon compiles cmd/budgetwfd into dir and returns the binary
// path. The build cache makes repeat builds cheap.
func BuildDaemon(dir string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "budgetwfd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/budgetwfd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("chaostest: building budgetwfd: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused localhost TCP port. The port
// is released before use, so a collision is possible but vanishingly
// unlikely within one test process.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls GET /healthz until it answers 200 or the timeout
// elapses.
func waitHealthy(baseURL string, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaostest: %s not healthy after %v (last: %v)", baseURL, timeout, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// StartCluster compiles the daemon if needed, starts the coordinator
// and workers, and waits for every process to answer /healthz. The
// caller must Stop the cluster (also on error paths — Stop is safe on
// a partially started cluster).
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 3
	}
	if cfg.HeartbeatTTL == 0 {
		cfg.HeartbeatTTL = time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 200 * time.Millisecond
	}
	if cfg.StealAfter == 0 {
		cfg.StealAfter = 2 * time.Second
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 8
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "chaostest-")
		if err != nil {
			return nil, err
		}
		cfg.Dir = dir
	}
	if cfg.Bin == "" {
		bin, err := BuildDaemon(cfg.Dir)
		if err != nil {
			return nil, err
		}
		cfg.Bin = bin
	}

	c := &Cluster{Config: cfg}
	var err error
	if c.coordPort, err = freePort(); err != nil {
		return nil, err
	}
	c.workerPorts = make([]int, cfg.Workers)
	for i := range c.workerPorts {
		if c.workerPorts[i], err = freePort(); err != nil {
			return nil, err
		}
	}
	if err := c.StartCoordinator(); err != nil {
		c.Stop()
		return nil, err
	}
	c.WorkerProcs = make([]*Proc, cfg.Workers)
	for i := range c.WorkerProcs {
		if err := c.StartWorker(i); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// start spawns one daemon process with stderr captured to a log file.
func (c *Cluster) start(name string, port int, args []string) (*Proc, error) {
	logPath := filepath.Join(c.Config.Dir, name+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(c.Config.Bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("chaostest: starting %s: %w", name, err)
	}
	p := &Proc{
		Name:    name,
		URL:     fmt.Sprintf("http://127.0.0.1:%d", port),
		LogPath: logPath,
		cmd:     cmd,
		logFile: logFile,
	}
	if err := waitHealthy(p.URL, 10*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	c.logf("chaostest: %s up at %s (pid %d)", name, p.URL, cmd.Process.Pid)
	return p, nil
}

// StartCoordinator starts (or, after KillCoordinator, restarts) the
// coordinator on its fixed port and journal. A restart exercises the
// recovery path: the journal lock names a dead pid, so it is reclaimed
// without -takeover, and unfinished jobs resume from snapshot + tail.
func (c *Cluster) StartCoordinator() error {
	p, err := c.start("coordinator", c.coordPort, []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", c.coordPort),
		"-journal", c.JournalPath(),
		"-heartbeat-ttl", c.Config.HeartbeatTTL.String(),
		"-steal-after", c.Config.StealAfter.String(),
		"-snapshot-every", fmt.Sprint(c.Config.SnapshotEvery),
		"-drain", "2s",
	})
	if err != nil {
		return err
	}
	c.Coord = p
	return nil
}

// StartWorker starts (or restarts) worker i: a -worker daemon that
// registers with the coordinator and heartbeats, so membership is
// dynamic — the coordinator is started with no static -peers at all.
func (c *Cluster) StartWorker(i int) error {
	port := c.workerPorts[i]
	name := fmt.Sprintf("worker%d", i)
	p, err := c.start(name, port, []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-worker",
		"-coordinator", c.CoordURL(),
		"-advertise", fmt.Sprintf("http://127.0.0.1:%d", port),
		"-heartbeat-interval", c.Config.HeartbeatInterval.String(),
		"-drain", "2s",
	})
	if err != nil {
		return err
	}
	c.WorkerProcs[i] = p
	return nil
}

// kill SIGKILLs the process and reaps it.
func (p *Proc) kill() {
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	if p.logFile != nil {
		p.logFile.Close()
		p.logFile = nil
	}
}

// KillWorker SIGKILLs worker i — no drain, no deregistration; the
// coordinator must notice via the missed heartbeats alone.
func (c *Cluster) KillWorker(i int) {
	p := c.WorkerProcs[i]
	if p == nil {
		return
	}
	c.logf("chaostest: SIGKILL %s (pid %d)", p.Name, p.cmd.Process.Pid)
	p.kill()
	c.WorkerProcs[i] = nil
}

// KillCoordinator SIGKILLs the coordinator, leaving the journal lock
// file naming a dead pid.
func (c *Cluster) KillCoordinator() {
	if c.Coord == nil {
		return
	}
	c.logf("chaostest: SIGKILL coordinator (pid %d)", c.Coord.cmd.Process.Pid)
	c.Coord.kill()
	c.Coord = nil
}

// Stop SIGKILLs every process. Logs and the journal stay on disk for
// inspection; callers owning a temp Dir remove it themselves.
func (c *Cluster) Stop() {
	for i := range c.WorkerProcs {
		if c.WorkerProcs[i] != nil {
			c.WorkerProcs[i].kill()
			c.WorkerProcs[i] = nil
		}
	}
	c.KillCoordinator()
}
