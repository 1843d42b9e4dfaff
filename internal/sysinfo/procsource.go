package sysinfo

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// ProcSource reads raw system information from a Linux /proc filesystem, so
// the runtime can monitor real hosts (the paper's scripts read the same
// quantities from Solaris utilities; its authors note the mechanism "could
// be easily ported to LINUX where the shell scripts could read the system
// parameters from /proc").
type ProcSource struct {
	root   string // normally "/proc"; tests point it at a fixture tree
	static Static
}

// NewProcSource returns a source reading from the /proc tree at root
// (use "/proc" on a live system).
func NewProcSource(root string) *ProcSource {
	host, _ := os.Hostname()
	return &ProcSource{
		root: root,
		static: Static{
			HostName: host,
			OS:       runtime.GOOS,
			Arch:     runtime.GOARCH,
		},
	}
}

// Static implements Source.
func (s *ProcSource) Static() Static { return s.static }

// Now implements Source with wall time.
func (s *ProcSource) Now() time.Time { return time.Now() }

// LoadAvg implements Source from /proc/loadavg.
func (s *ProcSource) LoadAvg() (l1, l5, l15 float64, err error) {
	data, err := os.ReadFile(filepath.Join(s.root, "loadavg"))
	if err != nil {
		return 0, 0, 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 3 {
		return 0, 0, 0, fmt.Errorf("sysinfo: malformed loadavg %q", data)
	}
	vals := make([]float64, 3)
	for i := 0; i < 3; i++ {
		if vals[i], err = strconv.ParseFloat(fields[i], 64); err != nil {
			return 0, 0, 0, fmt.Errorf("sysinfo: loadavg field %d: %w", i, err)
		}
	}
	return vals[0], vals[1], vals[2], nil
}

// RunQueue implements Source from the "r/t" field of /proc/loadavg.
func (s *ProcSource) RunQueue() (int, error) {
	data, err := os.ReadFile(filepath.Join(s.root, "loadavg"))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 4 {
		return 0, fmt.Errorf("sysinfo: malformed loadavg %q", data)
	}
	rt := strings.SplitN(fields[3], "/", 2)
	r, err := strconv.Atoi(rt[0])
	if err != nil {
		return 0, fmt.Errorf("sysinfo: loadavg runnable: %w", err)
	}
	return r, nil
}

// CPUTimes implements Source from the aggregate "cpu" line of /proc/stat.
// Busy is user+nice+system(+irq+softirq+steal); idle is idle+iowait.
func (s *ProcSource) CPUTimes() (busy, idle time.Duration, err error) {
	f, err := os.Open(filepath.Join(s.root, "stat"))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 5 || fields[0] != "cpu" {
			continue
		}
		var ticks []int64
		for _, fd := range fields[1:] {
			v, err := strconv.ParseInt(fd, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("sysinfo: stat cpu field: %w", err)
			}
			ticks = append(ticks, v)
		}
		const hz = 100 // USER_HZ
		tick := time.Second / hz
		var busyTicks, idleTicks int64
		for i, v := range ticks {
			if i == 3 || i == 4 { // idle, iowait
				idleTicks += v
			} else {
				busyTicks += v
			}
		}
		return time.Duration(busyTicks) * tick, time.Duration(idleTicks) * tick, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("sysinfo: no cpu line in %s/stat", s.root)
}

func (s *ProcSource) meminfo() (map[string]int64, error) {
	f, err := os.Open(filepath.Join(s.root, "meminfo"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		key := strings.TrimSuffix(fields[0], ":")
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[key] = v * 1024 // meminfo is in kB
	}
	return out, sc.Err()
}

// Memory implements Source from /proc/meminfo.
func (s *ProcSource) Memory() (total, used int64, err error) {
	mi, err := s.meminfo()
	if err != nil {
		return 0, 0, err
	}
	total = mi["MemTotal"]
	avail, ok := mi["MemAvailable"]
	if !ok {
		avail = mi["MemFree"]
	}
	return total, total - avail, nil
}

// Swap implements Source from /proc/meminfo.
func (s *ProcSource) Swap() (total, used int64, err error) {
	mi, err := s.meminfo()
	if err != nil {
		return 0, 0, err
	}
	total = mi["SwapTotal"]
	return total, total - mi["SwapFree"], nil
}

// Disks implements Source. Disk statistics are not exposed under /proc in a
// portable way; an empty table is returned and disk rules report their
// free-state default.
func (s *ProcSource) Disks() ([]DiskUsage, error) { return nil, nil }

// NetCounters implements Source from /proc/net/dev, summing all interfaces
// except loopback.
func (s *ProcSource) NetCounters() (sent, recv int64, err error) {
	f, err := os.Open(filepath.Join(s.root, "net", "dev"))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		iface := strings.TrimSpace(line[:colon])
		if iface == "lo" {
			continue
		}
		fields := strings.Fields(line[colon+1:])
		if len(fields) < 9 {
			continue
		}
		rx, err1 := strconv.ParseInt(fields[0], 10, 64)
		tx, err2 := strconv.ParseInt(fields[8], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		recv += rx
		sent += tx
	}
	return sent, recv, sc.Err()
}

// Sockets implements Source by counting ESTABLISHED (state 01) rows of
// /proc/net/tcp.
func (s *ProcSource) Sockets() (int, error) {
	f, err := os.Open(filepath.Join(s.root, "net", "tcp"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	count := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || fields[0] == "sl" {
			continue
		}
		if fields[3] == "01" {
			count++
		}
	}
	return count, sc.Err()
}

// Procs implements Source by listing numeric /proc entries.
func (s *ProcSource) Procs() ([]ProcStat, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var out []ProcStat
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		ps := ProcStat{PID: pid}
		if comm, err := os.ReadFile(filepath.Join(s.root, e.Name(), "comm")); err == nil {
			ps.Name = strings.TrimSpace(string(comm))
		}
		out = append(out, ps)
	}
	return out, nil
}

var _ Source = (*ProcSource)(nil)
