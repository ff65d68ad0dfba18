package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// cpuCategories are the buckets self CPU time is charged to, in report
// order: the repository's layers, then the Go runtime's garbage collector,
// the network stack and everything else.
var cpuCategories = []string{
	"radio", "broadcast", "sim", "stats", "rng", "bitset", "graph",
	"serve", "experiments", "coding", "net", "gc", "other",
}

// pkgCategory maps a package under noisyradio/internal to its bucket.
// Packages absent here are charged to "other".
var pkgCategory = map[string]string{
	"radio": "radio", "broadcast": "broadcast", "sim": "sim", "stats": "stats",
	"rng": "rng", "bitset": "bitset", "graph": "graph", "gbst": "graph",
	"serve": "serve", "experiments": "experiments", "throughput": "experiments",
	"gf16": "coding", "gf256": "coding", "rlnc": "coding", "rs": "coding", "rs16": "coding",
}

// stack is one line of `go tool pprof -traces` output: a self-time value
// and its call stack, innermost frame first.
type stack struct {
	ns     int64
	frames []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header, then
// blocks separated by "-----------+---" lines, each opening with
// "<value>   <leaf frame>" and continuing with one caller frame per line.
func parseTraces(r io.Reader) ([]stack, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []stack
	var cur *stack
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		text := strings.TrimSpace(line)
		if text == "" {
			continue
		}
		if cur == nil {
			if len(out) == 0 && !startsWithDigit(text) {
				continue // header before the first block
			}
			value, frame, ok := strings.Cut(text, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: block opens without a frame: %q", text)
			}
			ns, err := parseSampleValue(value)
			if err != nil {
				return nil, err
			}
			out = append(out, stack{ns: ns})
			cur = &out[len(out)-1]
			text = strings.TrimSpace(frame)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(text, " (inline)"))
	}
	return out, sc.Err()
}

func startsWithDigit(s string) bool { return s != "" && s[0] >= '0' && s[0] <= '9' }

// parseSampleValue parses a pprof time value such as "10ms", "1.50s" or
// "2.5mins".
func parseSampleValue(v string) (int64, error) {
	unit := time.Duration(0)
	num := v
	if n, ok := strings.CutSuffix(v, "mins"); ok {
		num, unit = n, time.Minute
	} else if n, ok := strings.CutSuffix(v, "hrs"); ok {
		num, unit = n, time.Hour
	}
	if unit == 0 {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("pprof traces: bad value %q", v)
		}
		return d.Nanoseconds(), nil
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: bad value %q", v)
	}
	return int64(f * float64(unit)), nil
}

// categorize charges a stack to the innermost noisyradio/internal package
// on it, so library code a layer calls (a sort, an allocation) counts as
// that layer's. Stacks with no such frame are garbage collection or
// background runtime work ("gc"), the network stack ("net"), or "other".
func categorize(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "noisyradio/internal/"); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if c, ok := pkgCategory[pkg]; ok {
				return c
			}
			return "other"
		}
	}
	for _, f := range frames {
		if isGCFrame(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/") || strings.HasPrefix(f, "net.") ||
			strings.HasPrefix(f, "internal/poll.") || strings.HasPrefix(f, "syscall.") {
			return "net"
		}
	}
	return "other"
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// cpuShares returns each category's share of the stacks' total self time.
func cpuShares(stacks []stack) map[string]float64 {
	byCat := map[string]int64{}
	var total int64
	for _, s := range stacks {
		byCat[categorize(s.frames)] += s.ns
		total += s.ns
	}
	out := make(map[string]float64, len(cpuCategories))
	for _, c := range cpuCategories {
		if total > 0 {
			out[c] = float64(byCat[c]) / float64(total)
		} else {
			out[c] = 0
		}
	}
	return out
}

// profileShares runs `go tool pprof -traces` on a CPU profile and returns
// the category shares of its self time.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	stacks, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	return cpuShares(stacks), nil
}
