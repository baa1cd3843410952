package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// expRun is one finished gaia-exp process.
type expRun struct {
	wall   time.Duration
	maxRSS float64 // MB
	digest string  // of the output directory
}

// runGaiaExp runs `gaia-exp -all -outdir outdir [extra...]` in a fresh
// process, waits for it, and digests what it wrote. The output directory
// is emptied first so a stale file cannot mask a missing one.
func runGaiaExp(bin, outdir string, extra ...string) (expRun, error) {
	if bin == "" {
		return expRun{}, errors.New("no gaia-exp binary given (--gaia-exp)")
	}
	if err := os.RemoveAll(outdir); err != nil {
		return expRun{}, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-all", "-outdir", outdir}, extra...)...)
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return expRun{}, fmt.Errorf("gaia-exp: %v: %s", err, stderr.String())
	}
	r := expRun{wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	r.digest, err = digestDir(outdir)
	return r, err
}

// digestDir hashes every file name and content of a flat directory in
// name order.
func digestDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runSuite is the suite workload: interleaved pairs of fresh-process
// figure-suite runs. op is a cold run (no disk cache: every cell computes,
// dedups and shares plans in memory); op2 is a warm run reading a disk
// cache primed during setup. Every run's output must match the priming
// run's byte for byte.
func runSuite(e *env) error {
	var cacheDir, want string
	n := 0
	err := e.setup(func() error {
		n++
		cacheDir = filepath.Join(e.tmp, fmt.Sprintf("cache%d", n))
		if n > 1 {
			os.RemoveAll(filepath.Join(e.tmp, fmt.Sprintf("cache%d", n-1)))
		}
		r, err := runGaiaExp(e.gaiaExp, filepath.Join(e.tmp, "prime"), "-cache", cacheDir)
		want = r.digest
		return err
	})
	if err != nil {
		return err
	}

	var cold, warm, rss samples
	var pair tracePair
	err = e.loop(2, func(i int) error {
		for _, warmRun := range []bool{false, true} {
			name, outdir, extra := "gaia-exp.cold", filepath.Join(e.tmp, "cold"), []string(nil)
			if warmRun {
				name, outdir, extra = "gaia-exp.warm", filepath.Join(e.tmp, "warm"), []string{"-cache", cacheDir}
			}
			var r expRun
			_, err := e.tr.do(name, 1, func() (err error) {
				r, err = runGaiaExp(e.gaiaExp, outdir, extra...)
				return err
			})
			if err == nil && r.digest != want {
				err = fmt.Errorf("%s output digest %.12s differs from the priming run's %.12s", name, r.digest, want)
			}
			if warmRun {
				record(e.rep, &warm, r.wall, err)
				continue
			}
			record(e.rep, &cold, r.wall, err)
			if err == nil {
				rss.add(r.maxRSS)
				pair.add(i, r.wall)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.rep.timing("op_ms", "ms", &cold)
	e.rep.timing("op2_ms", "ms", &warm)
	e.rep.set("rate_per_s", "1/s", 1e3/cold.median(), "cold figure-suite processes per second, from the median cold run")
	e.rep.set("mem_mb", "MB", rss.median(), fmt.Sprintf("median max RSS of cold processes, n=%d", rss.n()))
	e.overhead(&pair)
	return nil
}
