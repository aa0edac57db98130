package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// env is what set-up produces and every workload consumes.
type env struct {
	outDir string // bench/out under the module root: binaries, result.json, trace files
	runDir string // per-invocation temp dir under outDir; removed at exit

	daemonBin string
	buildS    float64

	trace     *workload.Trace
	modelPath string
	ref       *core.Inspector // core.LoadServable(modelPath): the in-process reference
	shallow   *corpus
	mixed     *corpus
	daemon    *daemon

	setupS float64 // median over the repetitions of set-up, at reference speed
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the benchmark runs from the repo root (the command line) and
// from bench/ (go test) alike.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// newEnv creates the output and run directories and builds the daemon.
func newEnv(ctx context.Context) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	e := &env{outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(filepath.Join(e.outDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	if e.runDir, err = os.MkdirTemp(e.outDir, "run-"); err != nil {
		return nil, err
	}
	e.daemonBin = filepath.Join(e.outDir, "bin", "inspectord")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.daemonBin, "./cmd/inspectord")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("go build ./cmd/inspectord: %v\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	return e, nil
}

// close stops the daemon and removes the run directory. Safe to call twice.
func (e *env) close() {
	e.stopDaemon()
	if e.runDir != "" {
		os.RemoveAll(e.runDir)
		e.runDir = ""
	}
}

func (e *env) stopDaemon() {
	if e.daemon != nil {
		e.daemon.stop()
		e.daemon = nil
	}
}

// setup runs the whole set-up reps times and keeps the last one's products:
// generate the trace, train and save the served model, load it back as the
// reference, pre-serialise the request corpora, start the daemon and wait
// for /healthz. setup_s is the median of the repetitions, each scaled to the
// reference speed (calib.go); stopping the previous daemon is teardown and is
// not timed.
func (e *env) setup(ctx context.Context, seed int64, sz sizes, reps int) error {
	var samples opTimes
	cal := calibrate()
	for i := 0; i < reps; i++ {
		e.stopDaemon()
		t0 := time.Now()
		if err := e.setupOnce(ctx, seed, sz); err != nil {
			return err
		}
		secs := time.Since(t0).Seconds()
		next := calibrate()
		samples.add(secs, cal, next)
		cal = next
	}
	e.setupS = median(samples.scaled)
	return nil
}

func (e *env) setupOnce(ctx context.Context, seed int64, sz sizes) error {
	e.trace = workload.SDSCSP2Like(traceJobs, traceSeed)
	t, err := core.NewTrainer(core.TrainConfig{
		Trace: e.trace, Policy: sched.SJF(), Metric: metrics.BSLD, FeatureMode: core.ManualFeatures,
		Batch: setupBatch, SeqLen: setupSeqLen, Seed: modelSeed,
	})
	if err != nil {
		return fmt.Errorf("set-up trainer: %w", err)
	}
	if _, err := t.Train(setupEpochs, nil); err != nil {
		return fmt.Errorf("set-up training: %w", err)
	}
	e.modelPath = filepath.Join(e.runDir, "model.gob")
	if err := t.Inspector().SaveFile(e.modelPath); err != nil {
		return err
	}
	if e.ref, err = core.LoadServable(e.modelPath, rand.New(rand.NewSource(daemonRNG))); err != nil {
		return fmt.Errorf("load served model back: %w", err)
	}
	e.shallow, e.mixed = genCorpora(e.trace, seed, sz)
	e.daemon, err = startDaemon(ctx, e.daemonBin, e.modelPath, e.runDir)
	return err
}

// daemon is one running inspectord.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it, so another process could take it in
// between; startDaemon then fails on /healthz and the run reports it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func startDaemon(ctx context.Context, bin, model, dir string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "inspectord.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-model", model, "-addr", addr, "-seed", strconv.Itoa(daemonRNG), "-proc-interval", "0")
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start inspectord: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf}
	deadline := time.Now().Add(10 * time.Second)
	health := newRequest("GET", "/healthz", nil)
	for {
		if c, err := dialRaw(addr); err == nil {
			status, _, err := c.do(health.wire)
			c.close()
			if err == nil && status == 200 {
				return d, nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.stop()
			logged, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("inspectord on %s never answered /healthz:\n%s", addr, logged)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon and waits for it: SIGTERM first so it drains,
// SIGKILL if it has not exited after five seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// rssPeakMB is the process's high-water resident set: the "VmHWM:  1234 kB"
// line of /proc/<pid>/status.
func rssPeakMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// resetSelfRSS returns freed heap to the kernel and resets this process's
// peak-RSS counter (writing 5 to /proc/self/clear_refs), so that the peak an
// in-process workload reports is its own and not set-up's or, under -all,
// an earlier workload's. Where the kernel refuses, the peak stays
// cumulative.
func resetSelfRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// procCPUms is utime+stime of /proc/<pid>/stat in milliseconds, taking the
// kernel's USER_HZ as the 100 every Linux port of Go runs on.
func procCPUms(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted after
	// its closing parenthesis: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return (utime + stime) * 10, nil
}
