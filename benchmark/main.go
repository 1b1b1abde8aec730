// Command benchmark is the repository's benchmark: it drives real
// core.Peers through their public functions over loopback TCP and on-disk
// write-ahead logs, in four workloads, and reports end-to-end metrics
// (timed run) or a per-layer budget (traced run). See README.md.
//
//	benchmark --workload tree_commit --seed 1 --seconds 15 --trace 0
//	benchmark            # every workload, timed then traced
//	benchmark -aa        # every workload timed twice, compared to the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func main() {
	cfg := &config{warmup: defaultWarmup, setups: defaultSetups, players: defaultPlayers}
	flag.StringVar(&cfg.workload, "workload", "", "run one workload: tree_commit, tree_abort, local_rw or open_mix (default: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed: key draws, operation mix and arrival gaps are pre-drawn from it")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics, 0: timed run reporting the end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", "benchmark/out", "directory for WAL directories and span files; must not be on tmpfs")
	flag.Float64Var(&cfg.rate, "rate", openRate, "open_mix arrival rate per second; the frozen default is what BENCHMARK.json measures, 0 runs the same mix closed-loop to calibrate it")
	aa := flag.Bool("aa", false, "run every workload's timed run twice and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()
	cfg.trace = *trace != 0

	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	if cfg.workload == "" {
		os.Exit(runAll(cfg, *aa))
	}
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runChild runs one workload in a child process, echoing its report, and
// returns the result from its last line.
func runChild(cfg *config, workload string, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t,
		"-dir", cfg.dir, "-rate", strconv.FormatFloat(cfg.rate, 'g', -1, 64))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	return &res, nil
}

// benchmarkFile is the part of BENCHMARK.json the A-A check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAll runs every workload in its own child process: timed then traced,
// or with aa two timed sets compared against BENCHMARK.json's bounds. It
// returns the exit code.
func runAll(cfg *config, aa bool) int {
	code := 0
	if !aa {
		for _, name := range workloadNames {
			for _, trace := range []bool{false, true} {
				res, err := runChild(cfg, name, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					code = 1
				} else if !res.Correct {
					code = 1
				}
			}
		}
		return code
	}

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("-aa reads the bounds from BENCHMARK.json; run it from the repository root: %w", err))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal(err)
	}
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = make(map[string]*result)
		for _, name := range workloadNames {
			res, err := runChild(cfg, name, false)
			if err != nil || !res.Correct {
				fmt.Fprintln(os.Stderr, "benchmark: A-A run failed:", name, err)
				return 1
			}
			sets[i][name] = res
		}
	}
	fmt.Printf("\n%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, name := range workloadNames {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][name].Metrics[m.Name].Value, sets[1][name].Metrics[m.Name].Value
			// How much worse the second set is than the first, as a share
			// of the first; a metric that got better counts as 0.
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-12s %-18s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
	}
	return code
}
