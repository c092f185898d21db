package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running pcserved process.
type proc struct {
	name string
	url  string
	log  string // path of the process's combined stdout and stderr
	cmd  *exec.Cmd
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startPcserved launches bin with args, logging to dir/name.log.
func startPcserved(bin, dir, name, addr string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die, its servers die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// errAddrInUse marks a process that could not listen on the address it
// was given: freeAddr's port was free when chosen, but another socket took
// it before the process bound it.
var errAddrInUse = errors.New("address taken before the process bound it")

// waitReady polls /readyz until it answers 200, the process exits, or the
// timeout passes.
func (p *proc) waitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			tail := p.logTail()
			if strings.Contains(tail, "address already in use") {
				return fmt.Errorf("%s exited during start-up: %w; log:\n%s", p.name, errAddrInUse, tail)
			}
			return fmt.Errorf("%s exited during start-up: %v; log:\n%s", p.name, p.err, tail)
		default:
		}
		resp, err := c.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %s; log:\n%s", p.name, timeout, p.logTail())
}

// logTail returns the process's log for error messages: its start, where a
// Go panic names its cause and the failing goroutine, and its end.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log) // best effort: the log is diagnostic only
	const keep = 2000
	if len(b) > 2*keep {
		return string(b[:keep]) + "\n[...]\n" + string(b[len(b)-keep:])
	}
	return string(b)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	select {
	case <-p.done:
		return 0, fmt.Errorf("%s exited while serving: %v; log:\n%s", p.name, p.err, p.logTail())
	default:
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", p.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// stop sends SIGTERM and waits for a graceful exit, killing the process if
// it has not exited within the grace period. It reports a non-zero exit.
func (p *proc) stop(grace time.Duration) error {
	select {
	case <-p.done:
		return p.exitErr()
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.done:
		return p.exitErr()
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not exit within %s of SIGTERM; log:\n%s", p.name, grace, p.logTail())
	}
}

func (p *proc) exitErr() error {
	if p.err != nil {
		return fmt.Errorf("%s: %w; log:\n%s", p.name, p.err, p.logTail())
	}
	return nil
}

// fleet is the set of processes serving one workload; url is the one
// clients talk to.
type fleet struct {
	procs []*proc
	url   string
}

// stopAll stops every process, routers first, and returns the first error.
func (c *fleet) stopAll() error {
	var first error
	for i := len(c.procs) - 1; i >= 0; i-- {
		if err := c.procs[i].stop(60 * time.Second); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// peakRSSMB sums VmHWM over the serving processes.
func (c *fleet) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range c.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// getJSON fetches url into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
