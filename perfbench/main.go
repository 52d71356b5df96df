// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads against the program the way users run it, checks
// every output against websim gold facts computed apart from the program,
// and prints its metrics as one JSON line:
//
//	serve-http    the ceres-serve daemon over a loopback socket
//	harvest-warm  the ceres-batch path with every model already stored
//	harvest-cold  the same job from an empty model store
//
// Run it from the repository root through perfbench/run.sh, which builds
// the daemon and this command first:
//
//	bash perfbench/run.sh --workload serve-http --seed 1 --seconds 20 --trace 0
//
// --trace 1 runs the traced layer ledger instead of the end-to-end
// measurement; --spread N repeats the workload N times on one seed (with
// --vary-seed, over N seeds) and prints each end-to-end metric's median,
// quartiles and quartile spread. See
// README.md for the workloads, metrics and measured spreads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries what every workload needs from the command line.
type env struct {
	serveBin string // the ceres-serve daemon binary
	batchBin string // the ceres-batch command, run for untraced harvest jobs
	selfBin  string // this binary, re-executed for traced harvest jobs
	work     string // scratch directory for the run's inputs and outputs
	seconds  float64
	trace    bool
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-http, harvest-warm or harvest-cold")
		seed     = flag.Int64("seed", 1, "input generator seed")
		seconds  = flag.Float64("seconds", 20, "timed work per run, in seconds (whole passes)")
		traceOn  = flag.Int("trace", 0, "1 runs the traced layer ledger instead of the end-to-end measurement")
		spread   = flag.Int("spread", 0, "repeat the run this many times on --seed and print the spread report")
		varySeed = flag.Bool("vary-seed", false, "with --spread, step the seed from run to run (seed, seed+1, ...)")
		serveBin = flag.String("serve-bin", "", "ceres-serve binary (built by run.sh)")
		batchBin = flag.String("batch-bin", "", "ceres-batch binary (built by run.sh)")
		work     = flag.String("work", "", "scratch directory for inputs and outputs (built by run.sh)")
		jobDir   = flag.String("job", "", "internal: run one traced harvest job over this harvest directory")
	)
	flag.Parse()

	if *jobDir != "" {
		if err := jobMain(*jobDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench job:", err)
			os.Exit(1)
		}
		return
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *serveBin == "" || *batchBin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -serve-bin, -batch-bin and -work are required; run it through perfbench/run.sh")
		os.Exit(2)
	}
	e := &env{serveBin: *serveBin, batchBin: *batchBin, selfBin: self, work: *work, seconds: *seconds, trace: *traceOn == 1}
	if *spread > 0 {
		if err := spreadMain(e, *workload, *seed, *spread, *varySeed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	// Each run gets its own work directory, removed when the run ends.
	dir := filepath.Join(*work, *workload+"-"+strconv.Itoa(os.Getpid()))
	e.work = dir

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, e, *workload, *seed)
	stop()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env, *inputs) (*result, error){
	"serve-http": runServe,
	"harvest-warm": func(ctx context.Context, e *env, in *inputs) (*result, error) {
		return runHarvest(ctx, e, in, false)
	},
	"harvest-cold": func(ctx context.Context, e *env, in *inputs) (*result, error) {
		return runHarvest(ctx, e, in, true)
	},
}

func run(ctx context.Context, e *env, workload string, seed int64) (*result, error) {
	runWorkload, ok := workloads[workload]
	if !ok {
		return nil, errors.New("unknown workload " + strconv.Quote(workload) + " (want serve-http, harvest-warm or harvest-cold)")
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	return runWorkload(ctx, e, generate(seed))
}
