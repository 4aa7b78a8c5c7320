package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is printed with every result, so a number can always be
// traced to the machine and settings that produced it.
type hostRecord struct {
	// NProc is the number of CPUs this process may run on (what nproc(1)
	// prints); NumCPU is runtime.NumCPU, which Go derives the same way.
	NProc      int    `json:"nproc"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"`
	// Serve-only settings: offered rate and per-class latency limits.
	OfferedRPS     float64            `json:"offered_rps,omitempty"`
	LimitsMS       map[string]float64 `json:"limits_ms,omitempty"`
	MaxConnections int                `json:"max_connections,omitempty"`
}

func newHostRecord(workers, shards int) hostRecord {
	return hostRecord{
		NProc:      nproc(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Workers:    workers,
		Shards:     shards,
	}
}

// nproc is the CPU count every workload sizes its workers or shards by.
func nproc() int { return runtime.NumCPU() }

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssPeak samples the process's resident set every rssEvery while a
// measured section runs and keeps the highest value: a per-section
// high-water mark, where VmHWM would hold the highest of the whole
// process (set-up, reference work and every earlier section).
type rssPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // bytes; written by the sampler, read after done
}

const rssEvery = 5 * time.Millisecond

// startRSSPeak returns the heap's freed pages to the OS, so the section
// starts from its live set, and starts sampling. It collects twice: the
// first collection only moves sync.Pool contents (the simulator's pooled
// trace buffers, ~100 MB after a batch) to the pools' victim caches, and
// the second, inside FreeOSMemory, frees them.
func startRSSPeak() *rssPeak {
	runtime.GC()
	debug.FreeOSMemory()
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			p.peak = max(p.peak, residentBytes())
			select {
			case <-p.stop:
				p.peak = max(p.peak, residentBytes())
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// mb stops the sampler and returns the peak in MiB.
func (p *rssPeak) mb() float64 {
	close(p.stop)
	<-p.done
	return float64(p.peak) / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// cpuSeconds is the CPU time this process has used, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the host's total steal time: the eighth value of
// /proc/stat's "cpu" line, in USER_HZ ticks of 1/100 s.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}
