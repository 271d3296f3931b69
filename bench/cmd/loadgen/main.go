// Command loadgen runs the repository's end-to-end load benchmark, or
// compares two sets of its runs.
//
// Usage, from the repository root:
//
//	go run ./bench/cmd/loadgen -workload <name|all> -seed N [-seconds 12] [-trace 1] [-out runs.json]
//	go run ./bench/cmd/loadgen -compare A.json B.json
//
// A run builds ./cmd/truthserve, starts it as a child process, drives a
// workload over HTTP and prints every metric as "workload metric value
// unit n=N"; the last line is a JSON summary. -trace 1 adds a traced
// in-process pass and reports per-layer metrics instead. -out appends each
// run to a JSON-lines file; -compare reads two such files. The exit status
// is 1 when a correctness check fails. See bench/README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"latenttruth/bench/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "all", "workload to run: read_snapshot, write_dirty, mixed_segments, refit_full or all")
		seed     = flag.Int64("seed", 1, "seed the held-out stream, the read mix and the checked entities derive from")
		seconds  = flag.Float64("seconds", 12, "measurement window per workload, in seconds")
		trace    = flag.Int("trace", 0, "1: follow each untraced run with a traced in-process run and report per-layer metrics")
		out      = flag.String("out", "", "append every run as one JSON line to this file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: A (baseline) and B")
		workDir  = flag.String("workdir", filepath.Join(".bench_build", "loadgen"), "scratch directory for the server binary, corpus, data and spans")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two files: A.json B.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	}
	names := loadgen.Workloads
	if *workload != "all" {
		if _, err := loadgen.Lookup(*workload); err != nil {
			return err
		}
		names = []string{*workload}
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root: it builds ./cmd/truthserve from source")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	server, err := filepath.Abs(filepath.Join(*workDir, "truthserve"))
	if err != nil {
		return err
	}
	build := exec.Command("go", "build", "-o", server, "./cmd/truthserve")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building truthserve: %w", err)
	}

	// The generator keeps to at most two threads; the server gets every
	// CPU. On a two-CPU machine they contend, as a client and a server on
	// one small host do.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	env := loadgen.Env{
		NProc:             runtime.NumCPU(),
		GOMAXPROCSServer:  runtime.NumCPU(),
		GOMAXPROCSLoadgen: runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		Commit:            commit(),
	}
	loadgen.PrintEnv(os.Stdout, env)

	var summary, all []*loadgen.Result
	for _, name := range names {
		opts := loadgen.Options{Workload: name, Seed: *seed, Seconds: *seconds,
			PreloadClaims: loadgen.DefaultPreloadClaims, WorkDir: *workDir, Server: server, Setups: 3, Env: env}
		if *trace == 1 {
			opts.Setups = 1 // set-up time is not reported by a traced run
		}
		res, err := loadgen.Untraced(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Print(os.Stdout)
		all = append(all, res)
		if *trace == 1 {
			opts.Env.GOMAXPROCSServer = runtime.GOMAXPROCS(0)
			if res, err = loadgen.Traced(opts, res); err != nil {
				return fmt.Errorf("%s traced: %w", name, err)
			}
			res.Print(os.Stdout)
			all = append(all, res)
		}
		summary = append(summary, res)
	}
	if *out != "" {
		if err := loadgen.Append(*out, all); err != nil {
			return err
		}
	}
	line, err := loadgen.Summary(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, r := range all {
		if !r.Correct {
			return fmt.Errorf("%s: correctness checks failed: %v", r.Workload, r.Checks)
		}
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}

func compareFiles(a, b string) error {
	ra, err := loadgen.ReadResults(a)
	if err != nil {
		return err
	}
	rb, err := loadgen.ReadResults(b)
	if err != nil {
		return err
	}
	return loadgen.Compare(os.Stdout, ra, rb)
}
