// Command mcgen generates synthetic mixed-criticality task sets with
// the Section IV-A protocol of Han et al. (ICPP 2016) and writes them
// as JSON.
//
// Usage:
//
//	mcgen [flags] > taskset.json
//	mcgen -count 10 -o sets/        # sets/set-0000.json ...
//
// Flags:
//
//	-m int        cores the workload targets (default 8)
//	-k int        criticality levels (default 4)
//	-n lo:hi      task-count range (default 40:200)
//	-nsu float    normalized system utilization (default 0.6)
//	-ifc lo:hi    WCET increment-factor range (default 0.4:0.4)
//	-seed int     base seed (default 1)
//	-count int    number of sets to generate (default 1)
//	-o dir        output directory (default: single set to stdout)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"catpa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it returns the process exit code,
// 0 on success and 1 on bad flags or a failed write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m     = fs.Int("m", 8, "number of cores")
		k     = fs.Int("k", 4, "criticality levels")
		nStr  = fs.String("n", "40:200", "task-count range lo:hi")
		nsu   = fs.Float64("nsu", 0.6, "normalized system utilization")
		ifc   = fs.String("ifc", "0.4:0.4", "increment-factor range lo:hi")
		seed  = fs.Int64("seed", 1, "base seed")
		count = fs.Int("count", 1, "number of task sets")
		out   = fs.String("o", "", "output directory (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mcgen:", err)
		return 1
	}

	cfg := catpa.DefaultGenConfig()
	cfg.M = *m
	cfg.K = *k
	cfg.NSU = *nsu
	var err error
	if cfg.N.Lo, cfg.N.Hi, err = parsePair(*nStr, strconv.Atoi); err != nil {
		return fail(err)
	}
	if cfg.IFC.Lo, cfg.IFC.Hi, err = parsePair(*ifc, parseFinite); err != nil {
		return fail(err)
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	if *count < 1 {
		return fail(fmt.Errorf("-count must be at least 1, got %d", *count))
	}
	if *count > 1 && *out == "" {
		return fail(errors.New("use -o for multiple sets"))
	}

	for i := 0; i < *count; i++ {
		ts := catpa.GenerateTaskSet(&cfg, *seed, i)
		data, err := json.MarshalIndent(ts, "", "  ")
		if err != nil {
			return fail(err)
		}
		if *out == "" {
			fmt.Fprintln(stdout, string(data))
			return 0
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
		name := filepath.Join(*out, fmt.Sprintf("set-%04d.json", i))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote %s (N=%d)\n", name, ts.Len())
	}
	return 0
}

// parsePair parses "lo:hi", applying parse to each side; anything
// else, trailing characters included, is an error.
func parsePair[T any](s string, parse func(string) (T, error)) (lo, hi T, err error) {
	a, b, ok := strings.Cut(s, ":")
	lo, errLo := parse(a)
	hi, errHi := parse(b)
	if !ok || errLo != nil || errHi != nil {
		var zero T
		return zero, zero, fmt.Errorf("invalid range %q (want lo:hi)", s)
	}
	return lo, hi, nil
}

// parseFinite parses a finite float64.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = errors.New("not finite")
	}
	return f, err
}
