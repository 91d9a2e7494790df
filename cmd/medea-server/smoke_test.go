package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The smoke test treats medea-server as a black box: build the real
// binary, drive it over HTTP, SIGKILL it mid-load, restart it on the
// same journal and verify zero committed placements were lost, then
// SIGTERM the survivor and check it drains to exit 0.

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "medea-server")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type proc struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	pprof string // the -pprof listener's http://host:port, if one was asked for
}

// startServer launches the binary and scrapes the listen addresses off
// stdout.
func startServer(t *testing.T, bin, journalDir string, extra ...string) *proc {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-journal", journalDir,
		"-nodes", "32", "-rack-size", "8",
		"-interval", "50ms",
		"-poll", "10ms",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	lines := bufio.NewScanner(stdout)
	addrCh := make(chan *proc, 1)
	go func() {
		p := &proc{cmd: cmd}
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "medea-server pprof on "); ok {
				p.pprof = rest
			}
			if rest, ok := strings.CutPrefix(lines.Text(), "medea-server listening on "); ok {
				p.base = rest
				addrCh <- p
				return
			}
		}
		close(addrCh)
	}()
	select {
	case p, ok := <-addrCh:
		if !ok {
			cmd.Process.Kill()
			t.Fatal("server exited before announcing its address")
		}
		return p
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("timed out waiting for the server to listen")
		return nil
	}
}

func (p *proc) submit(t *testing.T, id string) int {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"id": id,
		"groups": []map[string]any{
			{"name": "w", "count": 2, "memoryMB": 512, "vcores": 1},
		},
	})
	resp, err := http.Post(p.base+"/v1/lras", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (p *proc) state(t *testing.T, id string) string {
	t.Helper()
	resp, err := http.Get(p.base + "/v1/lras/" + id)
	if err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	defer resp.Body.Close()
	var sr struct {
		State string `json:"state"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return sr.State
}

func (p *proc) waitDeployed(t *testing.T, ids []string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		for p.state(t, id) != "deployed" {
			if time.Now().After(deadline) {
				t.Fatalf("%s not deployed within %s (state %q)", id, timeout, p.state(t, id))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func TestSmokeKillRecoverDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildServer(t)
	journalDir := filepath.Join(t.TempDir(), "journal")

	// Incarnation 1: deploy ten LRAs, then SIGKILL with more in flight.
	p1 := startServer(t, bin, journalDir)
	var committed []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("app-%02d", i)
		if code := p1.submit(t, id); code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", id, code)
		}
		committed = append(committed, id)
	}
	p1.waitDeployed(t, committed, 15*time.Second)
	// More load so the kill lands mid-flight, then SIGKILL: no drain, no
	// final checkpoint — recovery must work from WAL + last checkpoint.
	for i := 10; i < 20; i++ {
		p1.submit(t, fmt.Sprintf("app-%02d", i))
	}
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	p1.cmd.Wait()

	// Incarnation 2: recover from the same journal. Every placement the
	// first incarnation committed must come back deployed (checkpointed
	// ones are adopted; WAL-tail ones are re-queued and re-placed).
	p2 := startServer(t, bin, journalDir)
	p2.waitDeployed(t, committed, 15*time.Second)

	// New work still lands after recovery.
	if code := p2.submit(t, "post-recovery"); code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: status %d", code)
	}
	p2.waitDeployed(t, []string{"post-recovery"}, 15*time.Second)

	// SIGTERM under load: the drain must flush, checkpoint and exit 0.
	for i := 0; i < 5; i++ {
		p2.submit(t, fmt.Sprintf("drain-%02d", i))
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- p2.cmd.Wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			t.Fatalf("drain exited non-zero: %v", err)
		}
	case <-time.After(15 * time.Second):
		p2.cmd.Process.Kill()
		t.Fatal("drain did not finish within 15s")
	}

	// Incarnation 3: everything from before the drain is still there.
	p3 := startServer(t, bin, journalDir)
	defer func() {
		p3.cmd.Process.Signal(syscall.SIGTERM)
		p3.cmd.Wait()
	}()
	p3.waitDeployed(t, append(committed, "post-recovery"), 15*time.Second)
}

// TestPprofOnItsOwnListener checks that -pprof serves the profiles on
// its own listener and that the API listener serves none of them, with
// the flag set or not.
func TestPprofOnItsOwnListener(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildServer(t)
	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, withFlag := range []bool{false, true} {
		var extra []string
		if withFlag {
			extra = []string{"-pprof", "127.0.0.1:0"}
		}
		p := startServer(t, bin, filepath.Join(t.TempDir(), "journal"), extra...)
		if code := get(p.base + "/debug/pprof/"); code != http.StatusNotFound {
			t.Errorf("-pprof set %v: the API listener answers /debug/pprof/ with %d, want 404", withFlag, code)
		}
		switch {
		case !withFlag && p.pprof != "":
			t.Errorf("without -pprof the server announced a pprof listener at %s", p.pprof)
		case withFlag && p.pprof == "":
			t.Error("with -pprof the server announced no pprof listener")
		case withFlag:
			for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
				if code := get(p.pprof + path); code != http.StatusOK {
					t.Errorf("the pprof listener answers %s with %d, want 200", path, code)
				}
			}
		}
		p.cmd.Process.Signal(syscall.SIGTERM)
		p.cmd.Wait()
	}
}
