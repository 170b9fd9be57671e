package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one qilabeld child process listening on loopback with the
// default flags.
type daemon struct {
	cmd    *exec.Cmd
	log    *os.File
	base   string
	client *http.Client
	exited chan struct{}
	once   sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches qilabeld and waits until /healthz answers.
func startDaemon(bin, logPath string, client *http.Client) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating daemon log: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this process dies without stopping the daemon (killed on a
	// timeout, say), the kernel sends the daemon SIGTERM.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: logf, base: "http://" + addr, client: client, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant once stop or a failed start ends it
		close(d.exited)
	}()
	if err := d.waitHealthy(15 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("qilabeld exited during start-up (see %s)", d.log.Name())
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("qilabeld did not answer /healthz within %s", limit)
}

// stop sends SIGTERM, waits for the graceful drain and kills the process
// if it outlives the grace period. It returns once the process has exited.
// Calling it again is a no-op.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill() // the process may exit between the timeout and the kill
			<-d.exited
		}
		d.log.Close()
		d.client.CloseIdleConnections()
	})
}

// peakRSSMB reads the process's high-water resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading qilabeld status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading qilabeld status: %w", err)
	}
	return 0, errors.New("no VmHWM line in qilabeld status")
}

// serverMetrics is the part of qilabeld's /metrics the benchmark reads.
type serverMetrics struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
	} `json:"cache"`
	Endpoints map[string]struct {
		P50Ms float64 `json:"p50Ms"`
	} `json:"endpoints"`
}

func (d *daemon) metrics(ctx context.Context) (serverMetrics, error) {
	var m serverMetrics
	_, body, err := call(ctx, d.client, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return m, fmt.Errorf("scraping /metrics: %w", err)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// call sends one request and returns the status and the whole body.
func call(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// newClient returns an HTTP client holding at most conns connections to
// the daemon, each request bounded by timeout.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			Proxy:               nil,
		},
	}
}

// postAll POSTs every body to path over conns concurrent connections and
// fails unless each is answered 200.
func postAll(ctx context.Context, d *daemon, path string, bodies [][]byte) error {
	var (
		next atomic.Int64
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				status, reply, err := call(ctx, d.client, http.MethodPost, d.base+path, bodies[i])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s answered %d: %.200s", path, status, reply)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cpuTimes reads the machine-wide CPU counters from /proc/stat: the total
// of every state and the time the hypervisor gave to other guests
// (steal), in clock ticks.
func cpuTimes() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading /proc/stat: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
