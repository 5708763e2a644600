package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one hammerctl serve process on a loopback port the kernel picks.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// startServer execs `hammerctl serve -addr 127.0.0.1:0 flags...` and returns
// once the process has announced its listen address and answered /healthz.
func startServer(ctx context.Context, bin string, flags []string) (*server, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Read the banner for the address, then drain stdout so the server
		// never blocks on a full pipe; Wait runs after the pipe hits EOF.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 && !sent {
				f := strings.Fields(line[i+len("serving on "):])
				if len(f) > 0 {
					addr <- f[0]
					sent = true
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		return nil, fmt.Errorf("hammerctl serve exited before listening: %v", s.err)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("hammerctl serve did not announce an address within 60s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	for i := 0; ; i++ {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 2000 {
			s.stop()
			return nil, fmt.Errorf("hammerctl serve never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, escalates to SIGKILL after ten seconds, and returns
// once the process has exited and its output has been drained.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime; it
// is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the server's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from after
	// its closing parenthesis, where field 3 (state) is index 0.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS reads the server's VmHWM (peak resident set) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var c hostCPU
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted inside user, so it is left out.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c, nil
}

// stealFrac is the share of CPU time the hypervisor stole between a and b.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// metricsSnapshot is one /metrics scrape: every sample, keyed by the series
// name with its labels exactly as the exposition prints them.
type metricsSnapshot map[string]float64

func scrapeMetrics(base string) (metricsSnapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := metricsSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// diff is after minus before, series by series.
func (after metricsSnapshot) diff(before metricsSnapshot, series string) float64 {
	return after[series] - before[series]
}

// meanMS is the mean of a histogram's observations (in seconds) added
// between two scrapes, in milliseconds; 0 when none were added.
func meanMS(before, after metricsSnapshot, histogram string) float64 {
	n := after.diff(before, histogram+"_count")
	if n <= 0 {
		return 0
	}
	return after.diff(before, histogram+"_sum") / n * 1e3
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
