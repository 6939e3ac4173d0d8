package main

// hcserve as a child process on loopback.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	done   chan error
	once   sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer runs hcserve with its default limits plus args and waits
// until /healthz answers.
func startServer(bin, logDir string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(logDir, "hcserve-*.log")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		cmd:  exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			Proxy: nil, MaxIdleConnsPerHost: 4, DisableCompression: true,
		}},
		log:  logf,
		done: make(chan error, 1),
	}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("hcserve exited before ready: %v (log %s)", err, logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hcserve not ready after 60s (log %s)", logf.Name())
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than a minute.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(60 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.client.CloseIdleConnections()
		s.log.Close()
	})
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// setupServer starts hcserve setupRepeats times, setupGap apart, each in
// a fresh directory passed to args, and keeps the last instance running.
// setup_s is the median CPU time hcserve used from exec until /healthz
// answered. The benchmark collects its own garbage before each start, so
// that its collector does not compete with the start for the cores.
func setupServer(e *env, m metrics, args func(dir string) []string) (*server, error) {
	var cpu []float64
	var s *server
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
			time.Sleep(setupGap)
		}
		runtime.GC()
		dir := filepath.Join(e.work, fmt.Sprintf("server%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if s, err = startServer(e.hcserve, e.work, args(dir)...); err != nil {
			return nil, err
		}
		c, err := procCPU(s.cmd.Process.Pid)
		if err != nil {
			s.stop()
			return nil, err
		}
		cpu = append(cpu, c.Seconds())
	}
	m.set("setup_s", "s", median(cpu))
	return s, nil
}

// post sends body and returns the status, the named response header and
// the body.
func (s *server) post(path string, body []byte, header string) (int, string, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(header), b, err
}

func (s *server) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
