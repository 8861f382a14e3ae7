package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// environment is the host and build record printed with every result.
type environment struct {
	NProc      int
	GOMAXPROCS int
	CPU        string
	GoVersion  string
	Commit     string
	SourceSHA  string
}

func readEnvironment(srcRoot string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceSHA:  sourceDigest(srcRoot),
	}
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source_sha256=%s",
		e.NProc, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Commit, e.SourceSHA)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + modified
}

// sourceDigest hashes every Go source and go.mod under root (hidden
// directories skipped), so a result can be tied to the code that produced it
// even where the checkout carries no VCS metadata.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// startTimedPhase collects set-up's garbage, returns it to the OS, and resets
// the kernel's peak-resident-set mark, so peakRSSMB afterwards measures the
// timed phase alone.
func startTimedPhase() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux); where that is not
	// possible the peak falls back to the whole process lifetime.
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5")
		f.Close()
	}
}

// peakRSSMB is the peak resident set since startTimedPhase (VmHWM), in MiB.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return readUsage().MaxRSSMB
}

// usage is a snapshot of the process's CPU time and peak resident set.
type usage struct {
	CPU      float64 // user+sys seconds
	MaxRSSMB float64 // peak resident set, MiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports ru_maxrss in KiB.
	return usage{CPU: tv(ru.Utime) + tv(ru.Stime), MaxRSSMB: float64(ru.Maxrss) / 1024}
}
