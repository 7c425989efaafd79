package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// profiler captures one CPU profile around the run workload's traced
// replay and writes it next to the traced-run report.
type profiler struct {
	path string
	prof *cpuProfile
}

// run calls fn under the CPU profiler; a nil profiler just calls fn.
func (p *profiler) run(fn func() error) error {
	if p == nil {
		return fn()
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := os.WriteFile(p.path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	p.prof, err = parseProfile(buf.Bytes())
	return err
}

// cpuProfile is what the cross-check reads from a pprof profile: each
// sample's stack as function names (leaf first, inlined frames
// included) and its CPU time.
type cpuProfile struct {
	stacks [][]string
	values []int64
	total  int64
}

var errProfile = errors.New("malformed CPU profile")

// parseProfile decodes the gzipped profile.proto runtime/pprof writes.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []sample
		strs    []string
		locs    = make(map[uint64][]uint64) // location -> functions, leaf first
		funcs   = make(map[uint64]uint64)   // function -> name string index
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		var err error
		switch field {
		case 2: // Sample
			var s sample
			err = walkFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = varints(s.locs, v, b)
				case 2:
					s.vals, err = varints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err = walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			err = walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errProfile
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n < uint64(len(strs)) {
					stack = append(stack, strs[n])
				}
			}
		}
		v := int64(s.vals[len(s.vals)-1]) // CPU nanoseconds
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, v)
		p.total += v
	}
	return p, nil
}

// walkFields calls fn for every field of the protobuf message b: a
// varint field passes its value, a length-delimited field its bytes.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return errProfile
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field's values, packed or not.
func varints(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errProfile
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst, nil
}

// frameShare is the share of CPU time whose stack contains frame.
func (p *cpuProfile) frameShare(frame string) float64 {
	var v int64
	for i, stack := range p.stacks {
		for _, f := range stack {
			if f == frame {
				v += p.values[i]
				break
			}
		}
	}
	return float64(v) / float64(max(p.total, 1))
}

// packageOf is the Go package of a profile function name.
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// pkgShare is one row of the package-aggregated profile: the share of
// CPU time spent in the package's own functions (flat) and with the
// package anywhere on the stack (cum).
type pkgShare struct {
	Package string  `json:"package"`
	Flat    float64 `json:"flat"`
	Cum     float64 `json:"cum"`
}

// packages aggregates the profile by package, the equivalent of
// `go tool pprof -top` summed per package, by cumulative share.
func (p *cpuProfile) packages() []pkgShare {
	flat, cum := map[string]int64{}, map[string]int64{}
	for i, stack := range p.stacks {
		if len(stack) > 0 {
			flat[packageOf(stack[0])] += p.values[i]
		}
		seen := map[string]bool{}
		for _, f := range stack {
			if pkg := packageOf(f); !seen[pkg] {
				seen[pkg] = true
				cum[pkg] += p.values[i]
			}
		}
	}
	pkgs := make([]string, 0, len(cum))
	for pkg := range cum {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if a, b := cum[pkgs[i]], cum[pkgs[j]]; a != b {
			return a > b
		}
		return pkgs[i] < pkgs[j]
	})
	total := float64(max(p.total, 1))
	out := make([]pkgShare, len(pkgs))
	for i, pkg := range pkgs {
		out[i] = pkgShare{Package: pkg, Flat: float64(flat[pkg]) / total, Cum: float64(cum[pkg]) / total}
	}
	return out
}

// frameCheck compares, for one wrapped function, the share of the
// traced replay its spans cover with its share of the CPU profile.
type frameCheck struct {
	Frame        string  `json:"frame"`
	SpanShare    float64 `json:"span_share"`
	ProfileShare float64 `json:"profile_share"`
}

// crossCheck lines the spans up against the profile, frame by frame,
// and returns the largest disagreement.
func crossCheck(lr *layerRun, p *cpuProfile) ([]frameCheck, float64) {
	spanTime := map[string]time.Duration{}
	var frames []string
	for _, s := range lr.tr.spans {
		if _, ok := spanTime[s.frame]; !ok {
			frames = append(frames, s.frame)
		}
		spanTime[s.frame] += s.total
	}
	gap := 0.0
	out := make([]frameCheck, 0, len(frames))
	for _, f := range frames {
		c := frameCheck{Frame: f, SpanShare: spanTime[f].Seconds() / lr.traced.Seconds(), ProfileShare: p.frameShare(f)}
		gap = math.Max(gap, math.Abs(c.SpanShare-c.ProfileShare))
		out = append(out, c)
	}
	return out, gap
}

// traceReport is the traced run's record, written next to its profile.
type traceReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []spanRow          `json:"spans"`
	TracedMS float64            `json:"traced_ms"`
	PlainMS  float64            `json:"plain_ms"`
	Profile  string             `json:"profile"`
	Frames   []frameCheck       `json:"frames"`
	Packages []pkgShare         `json:"packages"`
	Metrics  map[string]float64 `json:"metrics"`
}

// spanRow is one span name's totals in the traced-run report.
type spanRow struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	Share   float64 `json:"share"`
}

// writeTraceReport records the primary workload's spans, the profile
// cross-check and the metrics, and sets trace.profile_gap.
func writeTraceReport(cfg config, lr *layerRun, prof *profiler, m metrics) error {
	frames, gap := crossCheck(lr, prof.prof)
	m["trace.profile_gap"] = gap
	rep := traceReport{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		TracedMS: ms(lr.traced),
		PlainMS:  ms(lr.plain),
		Profile:  filepath.Base(prof.path),
		Frames:   frames,
		Packages: prof.prof.packages(),
		Metrics:  m,
	}
	for _, s := range lr.tr.spans {
		rep.Spans = append(rep.Spans, spanRow{s.name, s.n, ms(s.total), s.total.Seconds() / lr.traced.Seconds()})
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
