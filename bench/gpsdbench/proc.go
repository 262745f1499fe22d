package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nodeOpts configures one admission node (a hop, when it serves a
// cluster). Every gpsd setting not named here stays at its default.
type nodeOpts struct {
	name   string
	shards int
	rate   float64
	walDir string
}

// node is one running serving process (or, in a traced run, its
// in-process equivalent).
type node interface {
	url() string
	// stop drains gracefully and waits for the exit.
	stop() error
	// kill ends the node abruptly and waits for the exit.
	kill()
}

// backend starts nodes: real gpsd processes for the end-to-end run,
// in-process stacks built from the layers' constructors for the traced
// run.
type backend interface {
	startNode(o nodeOpts) (node, error)
	startCoord(name, topoPath, journal string) (node, error)
}

// procBackend runs the gpsd binary.
type procBackend struct {
	gpsd string // binary path
	dir  string // where addr files and logs go
}

// proc is one gpsd process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{}
	err  error
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (b *procBackend) startNode(o nodeOpts) (node, error) {
	args := []string{"-rate", fmtFloat(o.rate), "-shards", strconv.Itoa(o.shards)}
	if o.walDir != "" {
		args = append(args, "-wal-dir", o.walDir)
	}
	return b.start(o.name, args)
}

func (b *procBackend) startCoord(name, topoPath, journal string) (node, error) {
	return b.start(name, []string{"-topology", topoPath, "-coord-wal-dir", journal})
}

func (b *procBackend) start(name string, args []string) (*proc, error) {
	addrFile := filepath.Join(b.dir, name+".addr")
	_ = os.Remove(addrFile)
	p := &proc{name: name, log: filepath.Join(b.dir, name+".log"), done: make(chan struct{})}
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	p.cmd = exec.Command(b.gpsd, args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// A harness that dies must not leave daemons behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.addr = string(bytes.TrimSpace(b))
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during boot (%v); see %s", name, p.err, p.log)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("%s did not bind within 2m; see %s", name, p.log)
		}
	}
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) stop() error {
	select {
	case <-p.done:
		return fmt.Errorf("%s had already exited: %v", p.name, p.err)
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s drain: %v; see %s", p.name, p.err, p.log)
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("%s did not drain within 30s", p.name)
	}
}

func (p *proc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// clkTck is the kernel's utime/stime unit (USER_HZ), 100 on Linux.
const clkTck = 100

// cpuNanos returns the process's summed user and system CPU time.
func (p *proc) cpuNanos() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may contain spaces; the
	// fields after it start with the state (field 3), so utime and stime
	// (fields 14 and 15) are at offsets 11 and 12.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (ut + st) * int64(time.Second) / clkTck, nil
}

// memBytes returns the process's resident set and its high-water mark.
func (p *proc) memBytes() (rss, peak int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		key, rest, _ := strings.Cut(line, ":")
		var v *int64
		switch key {
		case "VmRSS":
			v = &rss
		case "VmHWM":
			v = &peak
		default:
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			break
		}
		*v = kb << 10
		found++
	}
	if found != 2 {
		return 0, 0, errors.New("no VmRSS and VmHWM in /proc status")
	}
	return rss, peak, nil
}

// cpuTimes returns the machine's total and stolen CPU time in clock
// ticks (/proc/stat), the hypervisor's share of which tells a run on a
// shared host from a quiet one.
func cpuTimes() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, errors.New("malformed /proc/stat")
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
