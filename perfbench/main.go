// Command perfbench is Enki's end-to-end settlement benchmark. It
// drives one named workload through the public settlement entry points
// (netproto.StartCluster + ClusterDay, StartCenter + Connect +
// RunDayContext, StartReplicaSet + RunDayContext), checks every day's
// output, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, from untraced
// days; with --trace 1 they are the per-layer ones, from a separate
// traced run that also writes a span file. Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload city --seed 1 --seconds 30 --trace 0
//
// layers.json maps each per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed layers.json
var layersJSON []byte

// metricDoc is one metric's entry in layers.json.
type metricDoc struct {
	Unit       string              `json:"unit"`
	Definition string              `json:"definition"`
	Moves      map[string][]string `json:"moves"`
	NoMove     []string            `json:"no_move"`
}

type layerMap struct {
	HeldoutSeed  uint64               `json:"heldout_seed"`
	LoopbackNote string               `json:"loopback_note"`
	EndToEnd     map[string]metricDoc `json:"end_to_end"`
	PerLayer     map[string]metricDoc `json:"per_layer"`
}

func loadLayerMap() (*layerMap, error) {
	var m layerMap
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return &m, nil
}

// benchEndToEnd are the end-to-end metrics the final JSON line carries
// on an untraced run: the ones that are never 0 and steady enough to
// gate. dark_ratio, failed_day_ratio and retained_kb_per_day are
// printed in the report and carried on the traced line instead.
var benchEndToEnd = []string{"day_p50_ms", "day_p90_ms", "households_per_s", "setup_s", "alloc_kb_per_household"}

// minSetups is how many set-ups a timed run measures at least.
const minSetups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: city, neighborhood or replicated")
	seed := fs.Uint64("seed", 1, "seed of the household profiles")
	seconds := fs.Float64("seconds", 30, "seconds of timed days")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spanDir := fs.String("span-dir", ".bench_build/spans", "directory of the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {city,neighborhood,replicated}, --seconds > 0, --trace 0|1\n")
		return 2
	}
	lm, err := loadLayerMap()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	env, err := newEnv(*seed, w.households)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d households=%d\n",
		w.name, *seed, *seconds, *trace, w.households)
	fmt.Fprintf(stdout, "# machine: nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Fprintf(stdout, "# %s\n# held-out seed for re-checking claims: %d\n", lm.LoopbackNote, lm.HeldoutSeed)

	ctx := context.Background()
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var problems []string
	if *trace == 0 {
		res, problems = timedRun(ctx, w, env, budget, lm, stdout)
	} else {
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		res, problems = tracedRun(ctx, w, env, budget, lm, path, stdout)
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "# FAIL:", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd derives the end-to-end metrics of a stretch.
func endToEnd(st *stretch) map[string]float64 {
	sorted := sortedCopy(st.dayMS)
	p90, _ := nearestRank(sorted, 0.9)
	return map[string]float64{
		"day_p50_ms":             median(st.dayMS),
		"day_p90_ms":             p90,
		"households_per_s":       ratio(st.settled, float64(st.dayNS)/1e9),
		"setup_s":                median(st.setupS),
		"alloc_kb_per_household": ratio(st.allocBytes/1024, st.settled),
		"dark_ratio":             ratio(st.dark, st.enrolled),
		"failed_day_ratio":       ratio(float64(st.failed), float64(st.attempted)),
		"retained_kb_per_day":    ratio(st.retainedBytes/1024, float64(st.retainedDays)),
	}
}

func timedRun(ctx context.Context, w *workload, env *env, budget time.Duration, lm *layerMap, out io.Writer) (result, []string) {
	st := drive(ctx, driveConfig{w: w, env: env, budget: budget, minDays: minSamplesFor(0.9)})
	extraSetups(ctx, w, env, st, minSetups)
	vals := endToEnd(st)
	printEndToEnd(out, st, vals, lm)
	if _, beyond := nearestRank(sortedCopy(st.dayMS), 0.9); beyond < minBeyond {
		st.problem("day_p90_ms has %d days beyond it, want %d", beyond, minBeyond)
	}
	res := result{Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	for _, k := range benchEndToEnd {
		res.Metrics[k] = metric{Value: vals[k], Unit: lm.EndToEnd[k].Unit}
	}
	return res, st.problems
}

func printEndToEnd(out io.Writer, st *stretch, vals map[string]float64, lm *layerMap) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	_, beyond := nearestRank(sortedCopy(st.dayMS), 0.9)
	for _, k := range names {
		note := ""
		switch k {
		case "day_p50_ms", "households_per_s", "alloc_kb_per_household":
			note = fmt.Sprintf("(n=%d days)", len(st.dayMS))
		case "day_p90_ms":
			note = fmt.Sprintf("(n=%d days, %d beyond)", len(st.dayMS), beyond)
		case "setup_s":
			note = fmt.Sprintf("(n=%d set-ups)", len(st.setupS))
		case "dark_ratio":
			note = fmt.Sprintf("(base %.0f enrolled household-days)", st.enrolled)
		case "failed_day_ratio":
			note = fmt.Sprintf("(base %d days attempted)", st.attempted)
		case "retained_kb_per_day":
			note = fmt.Sprintf("(base %d days)", st.retainedDays)
		}
		fmt.Fprintf(out, "%-24s %14.6g %-6s %s\n", k, vals[k], lm.EndToEnd[k].Unit, note)
	}
}

// cpuModel reads the processor name for the report stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
