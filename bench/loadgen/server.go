package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"latenttruth/internal/serve"
)

// readyTimeout bounds one server set-up.
const readyTimeout = 150 * time.Second

// target is one running server: a truthserve child process (untraced) or
// an in-process serve.Server behind a local listener (traced).
type target struct {
	base    string
	pprof   string // the child's pprof listener
	dataDir string

	cmd    *exec.Cmd
	exited chan error // receives the child's exit status once

	srv    *serve.Server
	hs     *http.Server
	served chan error // receives Serve's return once
}

// startChild starts bin with spec's flags and waits until /healthz
// reports ready. The set-up time runs from process start to ready:
// preload, first fit and first checkpoint.
func startChild(bin string, spec Spec, preload, dataDir string, log io.Writer) (*target, time.Duration, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, 0, err
	}
	addr, pprofAddr := addrs[0], addrs[1]
	cmd := exec.Command(bin, spec.Flags(addr, pprofAddr, preload, dataDir)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = log, log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	t := &target{base: "http://" + addr, pprof: "http://" + pprofAddr, dataDir: dataDir, cmd: cmd, exited: make(chan error, 1)}
	go func() { t.exited <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for time.Since(start) < readyTimeout {
		select {
		case err := <-t.exited:
			t.exited <- err
			return nil, 0, fmt.Errorf("server exited during set-up: %v", err)
		default:
		}
		if ready(probe, t.base) {
			return t, time.Since(start), nil
		}
		time.Sleep(pollEvery)
	}
	t.stop()
	return nil, 0, fmt.Errorf("server not ready within %s", readyTimeout)
}

// ready reports whether /healthz answers with a published snapshot.
func ready(c *http.Client, base string) bool {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Ready bool `json:"ready"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Ready
}

// startInProcess builds spec's server in this process, preloads c the way
// truthserve -preload does, and serves wrap(Handler()) on a local port.
func startInProcess(spec Spec, c *Corpus, dataDir string, wrap func(http.Handler) http.Handler) (*target, error) {
	srv, err := serve.New(spec.ServeConfig(dataDir))
	if err != nil {
		return nil, err
	}
	if _, err := srv.Ingest(c.Preload); err != nil {
		srv.Close()
		return nil, err
	}
	if _, err := srv.Refit(""); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	t := &target{base: "http://" + ln.Addr().String(), dataDir: dataDir, srv: srv,
		hs: &http.Server{Handler: wrap(srv.Handler())}, served: make(chan error, 1)}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// stop shuts the server down and waits until it has ended. It is safe to
// call more than once.
func (t *target) stop() error {
	if t.cmd != nil {
		select {
		case err := <-t.exited:
			t.exited <- err
			return nil
		default:
		}
		_ = t.cmd.Process.Signal(syscall.SIGTERM) // the exit status below reports any failure
		select {
		case err := <-t.exited:
			t.exited <- err
			return err
		case <-time.After(10 * time.Second):
			_ = t.cmd.Process.Kill() // SIGTERM was ignored; Wait below still reaps it
			err := <-t.exited
			t.exited <- err
			return fmt.Errorf("server ignored SIGTERM: %v", err)
		}
	}
	if t.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := t.hs.Shutdown(ctx)
		if serr := <-t.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		t.srv.Close()
		t.hs = nil
		return err
	}
	return nil
}

// collectGarbage runs a full garbage collection in the server, so the
// window starts from the live heap alone instead of wherever the set-up's
// garbage left the collector; otherwise whether a collection of the ~0.5 GB
// heap lands inside the window varies from run to run.
func (t *target) collectGarbage() error {
	if t.srv != nil {
		runtime.GC()
		return nil
	}
	resp, err := http.Get(t.pprof + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("forcing a collection: status %d", resp.StatusCode)
	}
	return nil
}

// rssMB is the child's peak resident set (VmHWM) in MB.
func (t *target) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", t.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuSeconds is the child's user plus system CPU time so far.
func (t *target) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", t.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// freeAddrs returns n distinct loopback addresses whose ports were free a
// moment ago.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}
