package main

// CPU time of the processes doing a workload's work. The host is shared:
// an operation's wall time includes the time other tenants hold the cores,
// which swings by half within a minute, while the CPU time the operation
// itself uses stays within a few percent. The end-to-end times are
// therefore CPU times wherever the working process can be read.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the CPU time, user and system, of every thread of the
// benchmark process so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the time on CPU of every live thread of process pid so far,
// summed from /proc/<pid>/task/*/schedstat (nanoseconds). The processes
// read this way are Go programs, whose threads live as long as the
// process.
func procCPU(pid int) (time.Duration, error) {
	dirs, err := os.ReadDir(filepath.Join("/proc", strconv.Itoa(pid), "task"))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "task", d.Name(), "schedstat"))
		if os.IsNotExist(err) {
			continue // the thread exited between the listing and the read
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s of %d", d.Name(), pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}
