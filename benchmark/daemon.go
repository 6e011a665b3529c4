package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// The daemon workloads drive the real budgetwfd binary as child
// processes on loopback, never an in-process httptest server: inside
// the load generator the server would share the generator's heap, and
// GC pacing — one collection per few requests in the real daemon —
// would follow the generator's live heap instead of the daemon's own
// (README "Why the daemon is a child process").

const readyTimeout = 10 * time.Second

// procs owns every child process of one benchmark run, so that an
// exit path or a signal handler can stop them all.
type procs struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func newProcs() *procs { return &procs{live: make(map[*daemon]bool)} }

func (p *procs) stopAll() {
	p.mu.Lock()
	ds := make([]*daemon, 0, len(p.live))
	for d := range p.live {
		ds = append(ds, d)
	}
	p.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// daemon is one running budgetwfd child.
type daemon struct {
	owner  *procs
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned
	log    *os.File
	url    string // API base URL
	debug  string // -debug-addr base URL (expvar)
}

// freePort reserves a loopback port by binding :0 and releasing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// start launches budgetwfd on freshly chosen ports with -queue 1024
// and a debug listener, stderr kept in logPath, in its own process
// group, and waits for /readyz.
func (p *procs) start(bin, logPath string, client *http.Client, args ...string) (*daemon, error) {
	api, err := freePort()
	if err != nil {
		return nil, err
	}
	dbg, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		owner:  p,
		exited: make(chan struct{}),
		log:    logf,
		url:    fmt.Sprintf("http://127.0.0.1:%d", api),
		debug:  fmt.Sprintf("http://127.0.0.1:%d", dbg),
	}
	full := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", api),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dbg),
		"-queue", "1024",
	}, args...)
	d.cmd = exec.Command(bin, full...)
	d.cmd.Stderr = logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed child carries nothing
		close(d.exited)
	}()
	p.mu.Lock()
	p.live[d] = true
	p.mu.Unlock()
	if err := d.waitReady(client); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w (stderr in %s)", filepath.Base(logPath), err, logPath)
	}
	return d, nil
}

func (d *daemon) waitReady(client *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before it was ready")
		default:
		}
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("/readyz not up within %s", readyTimeout)
}

// stop kills the daemon's process group and waits until it has ended.
// The journal and caches of a benchmark daemon are throwaway, so no
// graceful drain.
func (d *daemon) stop() {
	d.owner.mu.Lock()
	wasLive := d.owner.live[d]
	delete(d.owner.live, d)
	d.owner.mu.Unlock()
	if !wasLive {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-d.exited
	d.log.Close()
}

// memSnap is the part of runtime.MemStats the benchmark reads, from a
// daemon's /debug/vars or from this process.
type memSnap struct {
	TotalAlloc   uint64
	Mallocs      uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{
		TotalAlloc:   a.TotalAlloc - b.TotalAlloc,
		Mallocs:      a.Mallocs - b.Mallocs,
		NumGC:        a.NumGC - b.NumGC,
		PauseTotalNs: a.PauseTotalNs - b.PauseTotalNs,
	}
}

func (a memSnap) add(b memSnap) memSnap {
	return memSnap{
		TotalAlloc:   a.TotalAlloc + b.TotalAlloc,
		Mallocs:      a.Mallocs + b.Mallocs,
		NumGC:        a.NumGC + b.NumGC,
		PauseTotalNs: a.PauseTotalNs + b.PauseTotalNs,
	}
}

func (d *daemon) memstats(client *http.Client) (memSnap, error) {
	var v struct {
		Memstats memSnap `json:"memstats"`
	}
	err := getJSON(client, d.debug+"/debug/vars", &v)
	return v.Memstats, err
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Cache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
	LatencyMs map[string]struct {
		Count float64 `json:"count"`
		SumMs float64 `json:"sumMs"`
	} `json:"latencyMs"`
	Statuses     map[string]float64 `json:"statuses"`
	ShardsServed float64            `json:"shardsServed"`
	Cluster      struct {
		Coordinator struct {
			Dispatched     float64 `json:"dispatched"`
			Requeued       float64 `json:"requeued"`
			Stolen         float64 `json:"stolen"`
			LocalFallbacks float64 `json:"localFallbacks"`
		} `json:"coordinator"`
		Journal struct {
			Seq       float64 `json:"seq"`
			TailBytes float64 `json:"tailBytes"`
		} `json:"journal"`
	} `json:"cluster"`
}

func (d *daemon) metrics(client *http.Client) (serverMetrics, error) {
	var m serverMetrics
	err := getJSON(client, d.url+"/metrics", &m)
	return m, err
}

// statusCount sums the responses whose status lies in [lo, hi].
func (m serverMetrics) statusCount(lo, hi int) float64 {
	n := 0.0
	for code, c := range m.Statuses {
		var k int
		if _, err := fmt.Sscanf(code, "%d", &k); err == nil && k >= lo && k <= hi {
			n += c
		}
	}
	return n
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body) // to the end, so the connection is reused
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}
