package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// facts are the machine and build facts every result set is recorded
// with.
type facts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	PGO        string `json:"pgo"`
	Commit     string `json:"commit"`
}

func machineFacts() facts {
	f := facts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		PGO:        "off",
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "-pgo":
				if s.Value != "" {
					f.PGO = "on (" + s.Value[strings.LastIndex(s.Value, "/")+1:] + ")"
				}
			case "vcs.revision":
				f.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			f.Commit += "+dirty"
		}
	}
	return f
}

func (f facts) JSON() string {
	b, _ := json.Marshal(f)
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTime is the CPU time the hypervisor has taken from this machine
// since boot, summed over its CPUs: the steal column of /proc/stat, in
// clock ticks of 10 ms. It is 0 where that file cannot be read.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}
