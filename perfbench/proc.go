package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Proc is one asap-server child process.
type Proc struct {
	cmd    *exec.Cmd
	Base   string // http://127.0.0.1:port
	args   []string
	log    string
	exited chan struct{}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// serverArgs is the shipped configuration plus the per-run address,
// data directory and fsync mode.
func serverArgs(port int, dataDir string, fsync time.Duration, extra ...string) []string {
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-data-dir", dataDir,
		"-fsync-every", fsync.String(),
		"-window", strconv.Itoa(windowPoints),
		"-resolution", strconv.Itoa(resolution),
		"-log-level", "warn",
	}
	return append(args, extra...)
}

func startProc(bin, logPath string, args []string) (*Proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark that dies must not leave a server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &Proc{cmd: cmd, args: args, log: logPath, exited: make(chan struct{})}
	for i, a := range args {
		if a == "-addr" {
			p.Base = "http://" + args[i+1]
		}
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server is expected
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// Kill sends SIGKILL and waits for the process to be gone.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if already exited
	<-p.exited
}

func (p *Proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// HWM returns the process's peak resident set (VmHWM) in MiB.
func (p *Proc) HWM() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

func (p *Proc) tailLog() string {
	b, _ := os.ReadFile(p.log) // diagnostics only
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// control is the benchmark's own connection for readiness polls, frame
// snapshots and /stats between phases; it is idle while a phase runs.
var control = &http.Client{Timeout: 30 * time.Second}

func getJSON(url string, v interface{}) (int, error) {
	resp, err := control.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls /readyz until it answers 200 with at least
// wantSeries series in its body, and returns when that happened.
func (p *Proc) waitReady(ctx context.Context, wantSeries int) (time.Time, error) {
	for {
		if !p.alive() {
			return time.Time{}, fmt.Errorf("server exited during start-up:\n%s", p.tailLog())
		}
		var body struct {
			Series int `json:"series"`
		}
		code, err := getJSON(p.Base+"/readyz", &body)
		if err == nil && code == http.StatusOK && body.Series >= wantSeries {
			return time.Now(), nil
		}
		select {
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("server not ready: %w (last status %d, err %v)", ctx.Err(), code, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
