package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one accruald process under test, in its own process group.
type daemon struct {
	cmd      *exec.Cmd
	pid      int
	udpPort  int
	httpBase string
	exited   chan struct{} // closed once Wait has returned
}

// live is the daemon currently running, so that the signal handler and
// the watchdog can take it down from their own goroutines.
var live struct {
	sync.Mutex
	d *daemon
}

// freePorts asks the kernel for one free loopback UDP port and one TCP
// port. They are released again before the daemon binds them; a lost
// race shows as a daemon that never gets healthy and is retried.
func freePorts() (udp, tcp int, err error) {
	u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, err
	}
	defer u.Close()
	t, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer t.Close()
	return u.LocalAddr().(*net.UDPAddr).Port, t.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs the shipped binary with default knobs (see README,
// "Link surface") and returns once /v1/healthz answers. Readiness never
// comes from log text.
func startDaemon(bin, detector, logPath string, hc *http.Client) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := execDaemon(bin, detector, logPath)
		if err != nil {
			return nil, err
		}
		if lastErr = d.waitHealthy(hc); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("daemon never became healthy: %w", lastErr)
}

func execDaemon(bin, detector, logPath string) (*daemon, error) {
	udp, tcp, err := freePorts()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-udp", "127.0.0.1:"+strconv.Itoa(udp),
		"-http", "127.0.0.1:"+strconv.Itoa(tcp),
		"-detector", detector,
		"-interval", "1s",
		"-ingest-queue", "4096",
	)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group, so the daemon and anything it might start go
	// down together; and if the runner itself is killed outright, the
	// kernel takes the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{
		cmd:      cmd,
		pid:      cmd.Process.Pid,
		udpPort:  udp,
		httpBase: "http://127.0.0.1:" + strconv.Itoa(tcp),
		exited:   make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled daemon is not news
		close(d.exited)
	}()
	live.Lock()
	live.d = d
	live.Unlock()
	return d, nil
}

func (d *daemon) waitHealthy(hc *http.Client) error {
	for {
		resp, err := hc.Get(d.httpBase + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			return fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		select {
		case <-d.exited:
			return errors.New("daemon exited before it was healthy")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop ends the daemon's process group, SIGTERM first and SIGKILL if it
// lingers, and returns only when the process has been waited for.
func (d *daemon) stop() {
	_ = syscall.Kill(-d.pid, syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(3 * time.Second):
		_ = syscall.Kill(-d.pid, syscall.SIGKILL)
		<-d.exited
	}
	// Anything the group still holds after its leader is gone.
	_ = syscall.Kill(-d.pid, syscall.SIGKILL)
	live.Lock()
	if live.d == d {
		live.d = nil
	}
	live.Unlock()
}

// stopLive stops whatever daemon is running; used on the ways out that
// do not pass through the normal flow.
func stopLive() {
	live.Lock()
	d := live.d
	live.Unlock()
	if d != nil {
		d.stop()
	}
}
