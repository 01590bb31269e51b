package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord identifies the machine, toolchain and code a run measured,
// and how much of the machine other tenants took while it ran, so a slow
// host can be told apart from a slow program.
type hostRecord struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the checked-out git commit when the tree is a git
	// repository; Source digests the module's Go sources and go.mod
	// files, which identifies the code in either case.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	// StealShare is the share of all CPU time the hypervisor gave to
	// other guests over the measured window; OtherShare is the busy CPU
	// time of every other process on this machine, as a share of all
	// CPU time. Both read /proc/stat; -1 where it is unavailable.
	StealShare float64 `json:"steal_share"`
	OtherShare float64 `json:"other_tenant_share"`
	WindowS    float64 `json:"window_s"`
}

// cpuSample is one reading of the machine-wide and own CPU counters.
type cpuSample struct {
	ok                 bool
	total, busy, steal uint64 // /proc/stat jiffies summed over all CPUs
	own                time.Duration
	at                 time.Time
}

func sampleCPU() cpuSample {
	s := cpuSample{at: hostNow(), own: ownCPU()}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	first, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(first)
	if len(fields) < 9 || fields[0] != "cpu" {
		return s
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		n, err := strconv.ParseUint(fields[i+1], 10, 64)
		if err != nil {
			return s
		}
		v[i] = n
	}
	s.ok = true
	s.total = v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]
	s.busy = v[0] + v[1] + v[2] + v[5] + v[6]
	s.steal = v[7]
	return s
}

func ownCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB (10^6 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// clockTick is USER_HZ, the unit of /proc/stat on every Linux platform Go
// supports.
const clockTick = 100

// newHostRecord describes the host and the CPU shares between two
// samples taken around the measured window.
func newHostRecord(root string, start, end cpuSample) hostRecord {
	h := hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
		StealShare: -1,
		OtherShare: -1,
		WindowS:    end.at.Sub(start.at).Seconds(),
	}
	if start.ok && end.ok && end.total > start.total {
		total := float64(end.total - start.total)
		h.StealShare = float64(end.steal-start.steal) / total
		own := (end.own - start.own).Seconds() * clockTick
		other := float64(end.busy-start.busy) - own
		if other < 0 {
			other = 0
		}
		h.OtherShare = other / total
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD without running git; "none" outside a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	return ref
}

// sourceDigest hashes every .go and go.mod file under root in path
// order, skipping hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return "unknown"
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		// hash.Hash.Write never returns an error.
		_, _ = io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
