package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark reads the daemon from outside, through Linux /proc. The
// parsers take the file contents so the tests can feed them fixtures.

// parseSchedstat returns the first field of a schedstat file: the
// nanoseconds the task has spent on a CPU.
func parseSchedstat(data []byte) (uint64, error) {
	f := bytes.Fields(data)
	if len(f) < 3 {
		return 0, fmt.Errorf("schedstat: want 3 fields, got %q", data)
	}
	return strconv.ParseUint(string(f[0]), 10, 64)
}

// taskCPU sums the on-CPU time of every thread of pid, in nanoseconds.
// A thread that exits between the directory listing and the read is
// skipped; the Go runtime does not retire threads in steady state.
func taskCPU(pid int) (uint64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, e := range ents {
		data, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			if errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ESRCH) {
				continue
			}
			return 0, err
		}
		ns, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return sum, nil
}

// udpSock is one row of /proc/net/udp.
type udpSock struct {
	rxQueue uint64 // bytes held in the socket's receive queue
	drops   uint64 // datagrams the kernel dropped at this socket
}

// parseNetUDP finds the socket bound to 127.0.0.1:port in the contents
// of /proc/net/udp.
func parseNetUDP(data []byte, port int) (udpSock, bool) {
	want := fmt.Sprintf("0100007F:%04X", port)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		// sl local rem st tx:rx tr:when retrnsmt uid timeout inode ref pointer drops
		if len(f) < 13 || f[1] != want {
			continue
		}
		_, rx, ok := strings.Cut(f[4], ":")
		if !ok {
			continue
		}
		rxq, err1 := strconv.ParseUint(rx, 16, 64)
		drops, err2 := strconv.ParseUint(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		return udpSock{rxQueue: rxq, drops: drops}, true
	}
	return udpSock{}, false
}

// statusField returns the first number on the named line of a
// /proc/<pid>/status file ("VmHWM:", "Threads:", ...).
func statusField(data []byte, name string) (uint64, bool) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// parsePidStat returns utime and stime, in clock ticks, from the
// contents of /proc/<pid>/stat. The command name may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parsePidStat(data []byte) (utime, stime uint64, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("pid stat: no command field in %q", data)
	}
	f := bytes.Fields(data[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("pid stat: short line %q", data)
	}
	if utime, err = strconv.ParseUint(string(f[11]), 10, 64); err != nil {
		return 0, 0, err
	}
	stime, err = strconv.ParseUint(string(f[12]), 10, 64)
	return utime, stime, err
}

// parseHostStat returns the steal and total jiffies of the aggregate
// "cpu" line of /proc/stat.
func parseHostStat(data []byte) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("host stat: unexpected first line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// procSample is what the runner reads about the daemon at the edges of
// the measured window.
type procSample struct {
	cpuNS          uint64
	utime, stime   uint64 // clock ticks
	ctxsw          uint64 // voluntary + involuntary, all threads
	threads        uint64
	hwmKB          uint64
	steal, hostAll uint64 // host jiffies
}

func sampleProc(pid int) (procSample, error) {
	var s procSample
	var err error
	if s.cpuNS, err = taskCPU(pid); err != nil {
		return s, err
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	if s.utime, s.stime, err = parsePidStat(stat); err != nil {
		return s, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.threads, _ = statusField(status, "Threads:")
	s.hwmKB, _ = statusField(status, "VmHWM:")
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return s, err
	}
	for _, e := range ents {
		ts, err := os.ReadFile(dir + "/" + e.Name() + "/status")
		if err != nil {
			continue // thread gone
		}
		v, _ := statusField(ts, "voluntary_ctxt_switches:")
		nv, _ := statusField(ts, "nonvoluntary_ctxt_switches:")
		s.ctxsw += v + nv
	}
	host, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, err
	}
	s.steal, s.hostAll, err = parseHostStat(host)
	return s, err
}

// selfCPU returns the CPU time, user plus system, that the whole
// runner (syscall.RUSAGE_SELF) or the calling thread (rusageThread) has
// used so far.
func selfCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const rusageThread = 1 // RUSAGE_THREAD
