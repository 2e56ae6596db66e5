package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a server child gets to exit after SIGTERM before
// its process group is killed.
const stopGrace = 15 * time.Second

// supervisor owns every server child and temporary directory a run
// creates, so that every exit path — normal return, error, panic and
// SIGINT/SIGTERM to the benchmark — stops the children and removes the
// directories. Children run in their own process group, and the group is
// signalled, never a wrapper process.
type supervisor struct {
	once     sync.Once // cleanup runs once; later callers wait for it
	mu       sync.Mutex
	closed   bool
	children map[*serverProc]struct{}
	dirs     []string
	logf     func(format string, args ...any)
}

func newSupervisor(logf func(string, ...any)) *supervisor {
	return &supervisor{children: map[*serverProc]struct{}{}, logf: logf}
}

// serverProc is one running snaptask-server child.
type serverProc struct {
	cmd     *exec.Cmd
	pid     int
	addr    string // host:port
	logPath string
	done    chan struct{} // closed once Wait has returned
	waitErr error         // written before done is closed
}

// base returns the child's HTTP base URL.
func (p *serverProc) base() string { return "http://" + p.addr }

// exited reports whether the child has exited.
func (p *serverProc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// tempDir creates a directory under parent that cleanup removes.
func (s *supervisor) tempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		os.RemoveAll(dir)
		return "", errors.New("benchmark is shutting down")
	}
	s.dirs = append(s.dirs, dir)
	return dir, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// start spawns the server binary on a free loopback port in its own
// process group and waits until /readyz answers 200. env entries are
// appended to the benchmark's environment.
func (s *supervisor) start(ctx context.Context, bin string, args, env []string, logPath string) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		p, err := s.spawn(bin, args, env, logPath)
		if err != nil {
			return nil, err
		}
		if err := waitReady(ctx, p, 120*time.Second); err != nil {
			lastErr = err
			_ = s.stop(p, stopGrace)
			if ctx.Err() != nil || !p.exited() {
				return nil, err
			}
			continue // most likely lost the port race: try another port
		}
		return p, nil
	}
	return nil, lastErr
}

func (s *supervisor) spawn(bin string, args, env []string, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Own process group: the whole group is signalled on stop. Pdeathsig
	// kills the child should the benchmark itself be SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		logFile.Close()
		return nil, errors.New("benchmark is shutting down")
	}
	err = cmd.Start()
	if err != nil {
		s.mu.Unlock()
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, pid: cmd.Process.Pid, addr: addr, logPath: logPath, done: make(chan struct{})}
	s.children[p] = struct{}{}
	s.mu.Unlock()
	s.logf("server pid %d listening on %s", p.pid, addr)

	go func() {
		p.waitErr = cmd.Wait()
		logFile.Close()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200, the child exits or the
// timeout passes.
func waitReady(ctx context.Context, p *serverProc, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(p.base() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("server exited before ready (%v); log: %s", p.waitErr, tailFile(p.logPath, 5))
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v", timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM to the child's process group, escalates to SIGKILL
// after grace, and waits for the child to be reaped. It returns the
// child's exit error (nil on a clean exit).
func (s *supervisor) stop(p *serverProc, grace time.Duration) error {
	if !p.exited() {
		_ = syscall.Kill(-p.pid, syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
			_ = syscall.Kill(-p.pid, syscall.SIGKILL)
			<-p.done
		}
	}
	// The group may hold stragglers even after the leader exited.
	_ = syscall.Kill(-p.pid, syscall.SIGKILL)
	s.mu.Lock()
	delete(s.children, p)
	s.mu.Unlock()
	return p.waitErr
}

// cleanup stops every child and removes every temporary directory. It is
// safe to call more than once and from any goroutine: every call returns
// only once the first has finished. After it has started no new child or
// directory can be created.
func (s *supervisor) cleanup() { s.once.Do(s.stopAll) }

// onPanic, deferred at the top of a goroutine, stops the children and
// removes the directories before a panic ends the process.
func (s *supervisor) onPanic() {
	if p := recover(); p != nil {
		s.cleanup()
		panic(p)
	}
}

func (s *supervisor) stopAll() {
	s.mu.Lock()
	s.closed = true
	children := make([]*serverProc, 0, len(s.children))
	for p := range s.children {
		children = append(children, p)
	}
	dirs := s.dirs
	s.dirs = nil
	s.mu.Unlock()
	for _, p := range children {
		_ = s.stop(p, stopGrace)
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found for pid %d", pid)
}

// tailFile returns the last n lines of a log file, for error messages.
func tailFile(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
