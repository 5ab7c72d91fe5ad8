package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		return v
	}
	return "unknown"
}

// peakMemMB is the process's peak resident set (VmHWM) in MB; where
// /proc is unavailable it falls back to the memory the Go runtime holds
// from the OS.
func peakMemMB() float64 {
	v := procField("/proc/self/status", "VmHWM")
	if kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64); err == nil && kb > 0 {
		return kb / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// procField returns the trimmed value of the first "key: value" line.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitRev resolves HEAD of the enclosing git checkout by reading .git
// directly; a source tree without git metadata reports "none".
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	// Packed refs: "<sha> <ref>" lines.
	b, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}
