// Command perfbench is the repository's serving benchmark. It generates a
// seeded workload from the paper's DRAM model, drives real pcserved
// processes at their default flags over loopback, checks every verdict
// against the workload's answer key, and prints the metrics BENCHMARK.json
// names: end to end with -trace 0, per layer with -trace 1.
//
//	perfbench -pcserved BIN -workdir DIR -workload NAME -seed N -seconds S -trace 0|1
//
// perfbench/run.sh builds both binaries from the checkout and runs it from
// the checkout's root, where BENCHMARK.json lives. DESIGN.md in this
// directory records why each workload and metric exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// topology is how a workload's pcserved processes are arranged.
type topology int

const (
	single  topology = iota // one pcserved, memory backend
	scatter                 // -mode=router -partitions over two partition nodes
	tiered                  // one pcserved, WAL + tiered store, enrollment stream
)

// workload is one traffic mix. Rates and sizes are constants: a later
// change is measured against the same offered load as its parent.
type workload struct {
	name string
	topo topology
	p    Params
	// warmup is how many closed-loop queries precede measurement.
	warmup int
	// capacityQueries bounds the closed-loop capacity phase's input: about
	// three times what the parent completes in a round's capacity phase. A
	// faster program that exhausts it is measured over the shorter time.
	capacityQueries int
	// minCheckpoints and minCompactions are the designed store activity
	// per enrollment phase; a run with less is invalid.
	minCheckpoints, minCompactions int
}

// Flags of the tiered workload's pcserved: small enough that every round
// flushes several times and compacts at least once.
const (
	tieredFlushEntries    = 8
	tieredCompactSegments = 2
)

var accuracies = []float64{0.99, 0.95, 0.90}

var workloads = []workload{
	{
		name: "identify-8k", topo: single,
		p:      Params{Devices: 8_000, PageBits: 4096, Accuracies: accuracies, HitShare: 0.5, ZipfS: 1.1, Rate: 100},
		warmup: 20, capacityQueries: 4_000,
	},
	{
		name: "scatter-2p-small", topo: scatter,
		p:      Params{Devices: 4_000, PageBits: 4096, Accuracies: accuracies, HitShare: 0.5, ZipfS: 1.1, RepeatShare: 0.3, Rate: 200},
		warmup: 200, capacityQueries: 8_000,
	},
	{
		name: "enroll-tiered", topo: tiered,
		p:      Params{Devices: 20_000, Stream: 400, PageBits: 4096, Accuracies: accuracies, HitShare: 0.5, ZipfS: 1.1, Rate: 60},
		warmup: 20, capacityQueries: 4_000,
		minCheckpoints: 2, minCompactions: 1,
	},
}

// openShare is the share of a run's measured seconds spent open loop; the
// closed-loop capacity phase takes the rest.
const openShare = 0.7

// roundsPerRun is how many times the untraced run sets up and measures; each
// metric is the median over rounds.
const roundsPerRun = 3

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	bin := fs.String("pcserved", "", "pcserved binary")
	workdir := fs.String("workdir", "", "directory for per-run files (removed afterwards)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *bin == "" || *workdir == "" {
		return errors.New("-pcserved and -workdir are required")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	want, err := specMetrics("BENCHMARK.json", *trace == 1)
	if err != nil {
		return err
	}
	w.p.Seed = *seed
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, bin: *bin, dir: dir, dur: time.Duration(*seconds * float64(time.Second))}
	var rep *report
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	return rep.print(os.Stdout, want)
}

// specMetrics reads the metric names and units to print from BENCHMARK.json.
func specMetrics(path string, perLayer bool) ([]specMetric, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if perLayer {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// row is one reported metric: its value, the count it rests on (samples
// for a percentile, the base for a ratio), and a note.
type row struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report collects a run's rows and outcome.
type report struct {
	rows      []row
	attempted int
	failed    int
	wrong     []string
}

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.rows = append(r.rows, row{name, value, unit, n, note})
}

// notes joins the non-empty parts of a row's note.
func notes(parts ...string) string {
	var keep []string
	for _, p := range parts {
		if p != "" {
			keep = append(keep, p)
		}
	}
	return strings.Join(keep, "; ")
}

// tailNote flags a percentile with fewer than ten samples beyond it.
func tailNote(n int, q float64) string {
	if beyond := math.Round(float64(n) * (1 - q)); beyond < 10 {
		return fmt.Sprintf("only %.0f samples beyond", beyond)
	}
	return ""
}

// print writes the table of every row, then the result line with the
// metrics want names. A wanted metric the run did not produce is an error.
func (r *report) print(out *os.File, want []specMetric) error {
	byName := map[string]row{}
	for _, x := range r.rows {
		byName[x.name] = x
		note := ""
		if x.note != "" {
			note = "  (" + x.note + ")"
		}
		fmt.Fprintf(out, "%-40s %14.4f %-6s n=%d%s\n", x.name, x.value, x.unit, x.n, note)
	}
	for _, w := range r.wrong {
		fmt.Fprintln(out, "WRONG:", w)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, w := range want {
		x, ok := byName[w.Name]
		if !ok || math.IsNaN(x.value) || math.IsInf(x.value, 0) || x.unit != w.Unit {
			missing = append(missing, w.Name)
			continue
		}
		res.Metrics[w.Name] = metric{x.value, x.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run produced no valid value for %s", strings.Join(missing, ", "))
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", blob)
	return err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mkdir(parts ...string) (string, error) {
	d := filepath.Join(parts...)
	return d, os.MkdirAll(d, 0o755)
}
