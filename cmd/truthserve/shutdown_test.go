package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestShutdownUnderWriteLoad is the graceful-stop contract a supervisor
// relies on: a durable dirty-refit daemon that is ingesting continuously
// and refitting every 100ms must, on SIGTERM, drain, stop its refit loop,
// close its WAL and exit with status 0 within 10s.
func TestShutdownUnderWriteLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level shutdown test in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "truthserve")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building truthserve: %v\n%s", err, out)
	}

	// A preloaded corpus the load does not cover keeps the timed refits on
	// the dirty path (a batch dirtying every entity falls back to a full
	// fit).
	var csv strings.Builder
	csv.WriteString("entity,attribute,source\n")
	for e := 0; e < 300; e++ {
		for s := 0; s < 3; s++ {
			fmt.Fprintf(&csv, "p%03d,a%d,s%d\n", e, (e+s)%4, s)
		}
	}
	preload := filepath.Join(tmp, "preload.csv")
	if err := os.WriteFile(preload, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-preload", preload,
		"-data-dir", filepath.Join(tmp, "state"),
		"-fsync", "interval",
		"-policy", "dirty",
		"-refit-interval", "100ms",
		"-iterations", "40",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting truthserve: %v", err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	defer func() { cmd.Process.Kill(); <-exited }() // no-op once it has exited
	waitHealthy(t, addr)

	// Two clients ingest back to back until the process is gone; errors
	// once shutdown starts are expected and ignored.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := 0
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				if tryPostBatch(addr, i) == nil {
					mu.Lock()
					acked++
					mu.Unlock()
				}
			}
		}(c)
	}
	defer func() { close(stop); wg.Wait() }()

	// Let several timed refits (and their checkpoints) run under load.
	for deadline := time.Now().Add(10 * time.Second); refitCount(t, addr) < 5; {
		if time.Now().After(deadline) {
			t.Fatal("fewer than 5 timed refits ran within 10s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	n := acked
	mu.Unlock()
	if n == 0 {
		t.Fatal("no batch was acknowledged before the shutdown")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		var exitErr *exec.ExitError
		if errors.As(waitErr, &exitErr) {
			t.Fatalf("truthserve exited with %v after SIGTERM, want status 0", waitErr)
		} else if waitErr != nil {
			t.Fatal(waitErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("truthserve still running 10s after SIGTERM")
	}
}

// refitCount reads the completed refit count from /stats.
func refitCount(t *testing.T, addr string) int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Refits int64 `json:"refits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Refits
}
