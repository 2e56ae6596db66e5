package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildBinaries builds snaptask-server and this benchmark into dir.
func buildBinaries(t *testing.T, dir string) (server, bench string) {
	t.Helper()
	server = filepath.Join(dir, "snaptask-server")
	bench = filepath.Join(dir, "perfbench")
	for _, args := range [][]string{
		{"build", "-o", server, "snaptask/cmd/snaptask-server"},
		{"build", "-o", bench, "."},
	} {
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return server, bench
}

var serverLine = regexp.MustCompile(`server pid (\d+) listening on (127\.0\.0\.1:\d+)`)

// benchRun is one benchmark process whose server children are watched
// through its stderr.
type benchRun struct {
	cmd     *exec.Cmd
	root    string
	mu      sync.Mutex
	servers map[int]string // pid -> address
	started chan struct{}  // closed at the first server child
	done    chan struct{}  // closed once stderr is drained
}

func startBench(t *testing.T, bench, server string, args ...string) *benchRun {
	t.Helper()
	root := t.TempDir()
	cmd := exec.Command(bench, append([]string{"-root", root, "-server", server, "--seed", "3", "--trace", "0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	b := &benchRun{cmd: cmd, root: root, servers: map[int]string{}, started: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		first := sync.OnceFunc(func() { close(b.started) })
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := serverLine.FindStringSubmatch(sc.Text()); m != nil {
				pid, _ := strconv.Atoi(m[1])
				b.mu.Lock()
				b.servers[pid] = m[2]
				b.mu.Unlock()
				first()
			}
		}
	}()
	return b
}

// wait waits for the benchmark to exit and returns its exit code.
func (b *benchRun) wait(t *testing.T) int {
	t.Helper()
	<-b.done
	err := b.cmd.Wait()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	}
	t.Fatalf("wait: %v", err)
	return -1
}

// assertClean requires every server child to be gone, its port free, and
// the run's temporary directories removed.
func (b *benchRun) assertClean(t *testing.T) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.servers) == 0 {
		t.Fatal("the benchmark never started a server child")
	}
	for pid, addr := range b.servers {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("server child %d still exists after the benchmark exited (kill -0: %v)", pid, err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("port of server child %d not free: %v", pid, err)
			continue
		}
		ln.Close()
	}
	tmp := filepath.Join(b.root, ".bench_build", "perfbench", "tmp")
	entries, err := os.ReadDir(tmp)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	if len(entries) > 0 {
		t.Errorf("temporary directories left behind: %v", entries)
	}
}

// TestNoProcessLeftBehind runs the benchmark to success, to a
// checked-output failure and to an interrupt, and after each requires
// that no server child survives and its port is free again.
func TestNoProcessLeftBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	dir := t.TempDir()
	server, bench := buildBinaries(t, dir)

	t.Run("success", func(t *testing.T) {
		b := startBench(t, bench, server, "--workload", "mixed", "--seconds", "2")
		if code := b.wait(t); code != 0 {
			t.Fatalf("exit code %d, want 0", code)
		}
		b.assertClean(t)
	})

	t.Run("checked-output failure", func(t *testing.T) {
		// A server whose body cap refuses every locate and upload: the run
		// must fail its checks and still stop the server.
		wrapper := filepath.Join(dir, "capped-server")
		script := fmt.Sprintf("#!/bin/sh\nexec %q \"$@\" -max-body-bytes 512\n", server)
		if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
		b := startBench(t, bench, wrapper, "--workload", "mixed", "--seconds", "2")
		if code := b.wait(t); code == 0 {
			t.Fatal("run against a refusing server exited 0")
		}
		b.assertClean(t)
	})

	t.Run("interrupt", func(t *testing.T) {
		b := startBench(t, bench, server, "--workload", "serve", "--seconds", "30")
		select {
		case <-b.started:
		case <-time.After(2 * time.Minute):
			t.Fatal("no server child started")
		}
		time.Sleep(500 * time.Millisecond)
		if err := b.cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		if code := b.wait(t); code == 0 {
			t.Fatal("interrupted run exited 0")
		}
		b.assertClean(t)
	})
}
