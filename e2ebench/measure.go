package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is one reading of the process-wide counters the end-to-end
// metrics are computed from: CPU time (user+sys, from getrusage) and the
// bytes the process moved through read and write system calls (rchar and
// wchar from /proc/self/io — an exact count that includes page-cache hits
// and sockets).
type procSample struct {
	cpu   time.Duration
	rchar int64
	wchar int64
}

func sampleProc() (procSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSample{}, fmt.Errorf("getrusage: %w", err)
	}
	s := procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return s, fmt.Errorf("read I/O counters: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "rchar":
			s.rchar = v
		case "wchar":
			s.wchar = v
		}
	}
	return s, sc.Err()
}

// sub returns the counters accumulated between o and s.
func (s procSample) sub(o procSample) procSample {
	return procSample{cpu: s.cpu - o.cpu, rchar: s.rchar - o.rchar, wchar: s.wchar - o.wchar}
}

func (s procSample) add(o procSample) procSample {
	return procSample{cpu: s.cpu + o.cpu, rchar: s.rchar + o.rchar, wchar: s.wchar + o.wchar}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS restarts the VmHWM high-water mark from the current
// resident set (Linux ≥ 4.0), so the input generation and the reference
// sort that precede the measured part do not count as the program's peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is the number of samples that must lie above the reported
// tail percentile.
const tailBeyond = 10

// tail returns the highest nearest-rank percentile of xs that still has at
// least ten samples above it, with that percentile. The value is the
// eleventh-largest sample, which sits at percentile 100·(n−10)/n. ok is
// false when there are fewer than eleven samples; the value is then the
// largest sample and pct is 100.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}
