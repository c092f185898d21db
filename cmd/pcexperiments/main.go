// Command pcexperiments regenerates every table and figure of the paper's
// evaluation on the simulated platform, under a resilient, resumable
// runner (internal/runner): each experiment runs with optional timeout,
// panic recovery, and transient-failure retry, and the suite checkpoints a
// manifest into the output directory so an interrupted run can be resumed
// with -resume, rerunning only incomplete experiments.
//
// Usage:
//
//	pcexperiments [-run all|NAME[,NAME...]] [-scale small|default|paper]
//	              [-out DIR] [-scattered] [-resume] [-timeout DUR]
//	              [-retries N] [-faults PLAN] [-fault.seed SEED]
//
// Experiment names: fig5 fig7 fig8 fig9 fig10 fig11 fig13 fig13stream
// table1 table2 ddr2 defenses errloc crossmech scramble refreshschemes allocator
// collisions threshold modelcheck energy apps eccdefense coldboot
// ablations.
//
// -faults installs a deterministic fault-injection plan (internal/faults)
// for chaos runs, e.g. -faults dram=0.0001,latency=1ms; transient DRAM
// faults injected this way are absorbed by the runner's retry policy.
//
// Results are printed to stdout; CSV series and PGM images are written to
// the output directory (default ./results) alongside the checkpoint
// manifest.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"probablecause/internal/dram"
	"probablecause/internal/experiment"
	"probablecause/internal/faults"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
	"probablecause/internal/runner"
)

func main() {
	// The single exit path: every error funnels through run's return value
	// so the deferred obs finish (report/trace flush) always executes
	// before the process decides its exit code.
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pcexperiments:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("pcexperiments", flag.ExitOnError)
	runSel := fs.String("run", "all", "experiments to run: all, or a comma-separated list of names")
	scale := fs.String("scale", "default", "experiment scale: small, default, or paper")
	out := fs.String("out", "results", "output directory for CSV/PGM artifacts and the checkpoint manifest")
	scattered := fs.Bool("scattered", false, "fig13: use page-level-ASLR (scattered) placement")
	workers := fs.Int("workers", 1, "worker pool size inside each experiment (0 = one per CPU); any value produces identical results")
	resume := fs.Bool("resume", false, "skip experiments the manifest in -out already records as done")
	timeout := fs.Duration("timeout", 0, "per-experiment timeout (0 = unbounded)")
	retries := fs.Int("retries", 2, "extra attempts for experiments failing with transient errors")
	faultSpec := fs.String("faults", "", "fault-injection plan, e.g. dram=0.0001,latency=1ms (chaos testing)")
	faultSeed := fs.Uint64("fault.seed", 0xFA17, "seed of the fault plan's decision stream")
	obsOpts := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	obsFinish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := obsFinish(); err == nil {
			err = ferr
		}
	}()

	plan, err := faults.ParsePlan(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	if plan.Active() {
		inj := faults.NewInjector(plan)
		dram.SetDefaultFaultHook(inj.ChipHook())
		defer dram.SetDefaultFaultHook(nil)
		fmt.Printf("fault injection active: %s (seed %#x)\n", plan, *faultSeed)
	}

	specs, err := suite(*runSel, *scale, *scattered, pool.Workers(*workers))
	if err != nil {
		return err
	}

	// ^C / SIGTERM cancels the suite context; the runner checkpoints after
	// every experiment, so the interrupted run resumes with -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	cfg := runner.Config{
		OutDir:  *out,
		Timeout: *timeout,
		Retries: *retries,
		Resume:  *resume,
		Seed:    *faultSeed,
		// The manifest pins the parameters that determine artifact
		// content; -run is deliberately absent so partial runs of the same
		// configuration share one checkpoint.
		Meta: map[string]string{
			"scale":     *scale,
			"scattered": strconv.FormatBool(*scattered),
			"faults":    plan.String(),
		},
	}
	summary, rerr := runner.Run(ctx, cfg, specs)
	if summary != nil && len(summary.Results) > 0 {
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(summary)
	}
	if rerr != nil {
		return rerr
	}
	if failed := summary.Failed(); len(failed) > 0 {
		return fmt.Errorf("%d of %d experiment(s) failed; rerun with -resume to retry only those",
			len(failed), len(summary.Results))
	}
	fmt.Printf("done in %v; artifacts in %s\n", time.Since(start).Round(time.Millisecond), *out)
	return nil
}

// suite resolves the -run selection against the full experiment registry.
func suite(sel, scale string, scattered bool, workers int) ([]runner.Spec, error) {
	all := specs(scale, scattered, workers)
	if sel == "" || sel == "all" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(sel, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []runner.Spec
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
			delete(want, s.Name)
		}
	}
	if len(want) > 0 {
		var unknown, known []string
		for name := range want {
			unknown = append(unknown, name)
		}
		for _, s := range all {
			known = append(known, s.Name)
		}
		return nil, fmt.Errorf("unknown experiment(s) %s; known: %s",
			strings.Join(unknown, ","), strings.Join(known, " "))
	}
	return out, nil
}

// corpusBox lazily builds the shared identification corpus used by fig7,
// fig9, fig11, and threshold. Errors are not cached: a transiently-failed
// build (fault injection reaches chip construction reads) is retried on
// the next experiment attempt.
type corpusBox struct {
	scale string
	mu    sync.Mutex
	c     *experiment.Corpus
}

func (b *corpusBox) get(rc *runner.RunContext) (*experiment.Corpus, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.c != nil {
		return b.c, nil
	}
	params := experiment.DefaultCorpusParams()
	if b.scale == "small" {
		params = experiment.SmallCorpusParams()
	}
	rc.Printf("building %d-chip corpus (%d KB each)...\n",
		params.Chips, params.Geometry.Bytes()/1024)
	c, err := experiment.BuildCorpus(params)
	if err != nil {
		return nil, err
	}
	b.c = c
	return c, nil
}

// specs is the experiment registry, in the order the original script ran
// them. Each body reports through the RunContext so output and artifacts
// stay attributable (and suppressible) per attempt.
func specs(scale string, scattered bool, workers int) []runner.Spec {
	small := scale == "small"
	corpus := &corpusBox{scale: scale}
	return []runner.Spec{
		{Name: "fig5", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultFig5Params()
			if small {
				p = experiment.SmallFig5Params()
			}
			r, err := experiment.RunFig5(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			for name, data := range r.PGMs() {
				if err := rc.WriteArtifact(name, data); err != nil {
					return err
				}
			}
			return nil
		}},
		{Name: "fig7", Run: func(ctx context.Context, rc *runner.RunContext) error {
			c, err := corpus.get(rc)
			if err != nil {
				return err
			}
			r := experiment.RunFig7(c, workers)
			rc.Section(r.Render())
			return rc.WriteArtifact("fig7.csv", []byte(r.CSV()))
		}},
		{Name: "fig8", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultFig8Params()
			if small {
				p = experiment.SmallFig8Params()
			}
			r, err := experiment.RunFig8(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return rc.WriteArtifact("fig8.csv", []byte(r.CSV()))
		}},
		{Name: "fig9", Run: func(ctx context.Context, rc *runner.RunContext) error {
			c, err := corpus.get(rc)
			if err != nil {
				return err
			}
			r := experiment.RunFig9(c, workers)
			rc.Section(r.Render())
			return rc.WriteArtifact("fig9.csv", []byte(r.GroupedDistances.CSV()))
		}},
		{Name: "fig10", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultFig10Params()
			if small {
				p = experiment.SmallFig10Params()
			}
			r, err := experiment.RunFig10(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "fig11", Run: func(ctx context.Context, rc *runner.RunContext) error {
			c, err := corpus.get(rc)
			if err != nil {
				return err
			}
			r := experiment.RunFig11(c, workers)
			rc.Section(r.Render())
			return rc.WriteArtifact("fig11.csv", []byte(r.GroupedDistances.CSV()))
		}},
		{Name: "threshold", Run: func(ctx context.Context, rc *runner.RunContext) error {
			c, err := corpus.get(rc)
			if err != nil {
				return err
			}
			r, err := experiment.RunThresholdSweep(c, experiment.DefaultThresholdSweep(), workers)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "fig13", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultFig13Params()
			switch scale {
			case "small":
				p = experiment.SmallFig13Params()
			case "paper":
				p = experiment.PaperScaleFig13Params()
			}
			p.Scattered = scattered
			p.Workers = workers
			if scattered {
				p.MinOverlap = 2
			}
			r, err := experiment.RunFig13(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return rc.WriteArtifact("fig13.csv", []byte(r.CSV()))
		}},
		{Name: "fig13stream", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultFig13StreamParams()
			if small {
				p = experiment.SmallFig13StreamParams()
			}
			p.Workers = workers
			r, err := experiment.RunFig13Streaming(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return rc.WriteArtifact("fig13stream.csv", []byte(r.CSV()))
		}},
		{Name: "table1", Run: func(ctx context.Context, rc *runner.RunContext) error {
			r, err := experiment.RunTable1(experiment.DefaultTable1Params())
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "table2", Run: func(ctx context.Context, rc *runner.RunContext) error {
			r, err := experiment.RunTable2(experiment.DefaultTable2Params())
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "ddr2", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultDDR2Params()
			if small {
				p = experiment.SmallDDR2Params()
			}
			r, err := experiment.RunDDR2(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "defenses", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultDefensesParams()
			if small {
				p = experiment.SmallDefensesParams()
			}
			r, err := experiment.RunDefenses(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "errloc", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultErrLocParams()
			if small {
				p = experiment.SmallErrLocParams()
			}
			r, err := experiment.RunErrLoc(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "crossmech", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultCrossMechParams()
			if small {
				p = experiment.SmallCrossMechParams()
			}
			r, err := experiment.RunCrossMechanism(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "scramble", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultScrambleParams()
			if small {
				p = experiment.SmallScrambleParams()
			}
			r, err := experiment.RunScrambling(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "refreshschemes", Run: func(ctx context.Context, rc *runner.RunContext) error {
			r, err := experiment.RunRefreshSchemes(experiment.DefaultRefreshSchemesParams())
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "allocator", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultAllocatorParams()
			if small {
				p = experiment.SmallAllocatorParams()
			}
			r, err := experiment.RunAllocatorComparison(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "collisions", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultCollisionParams()
			if small {
				p = experiment.SmallCollisionParams()
			}
			p.Workers = workers
			r, err := experiment.RunCollisions(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "modelcheck", Run: func(ctx context.Context, rc *runner.RunContext) error {
			r, err := experiment.RunModelCheck(experiment.DefaultModelCheckParams())
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "energy", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultEnergyParams()
			if small {
				p = experiment.SmallEnergyParams()
			}
			r, err := experiment.RunEnergyPrivacy(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "apps", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultAppsParams()
			if small {
				p = experiment.SmallAppsParams()
			}
			r, err := experiment.RunApps(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "eccdefense", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultECCParams()
			if small {
				p = experiment.SmallECCParams()
			}
			r, err := experiment.RunECCDefense(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "coldboot", Run: func(ctx context.Context, rc *runner.RunContext) error {
			r, err := experiment.RunColdBoot(experiment.DefaultColdBootParams())
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "scale", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultScaleParams()
			if small {
				p = experiment.SmallScaleParams()
			}
			p.Workers = workers
			r, err := experiment.RunScale(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return rc.WriteArtifact("scale_verdicts.csv", r.CSV())
		}},
		{Name: "scale1m", Run: func(ctx context.Context, rc *runner.RunContext) error {
			p := experiment.DefaultScale1MParams()
			if small {
				p = experiment.SmallScale1MParams()
			}
			r, err := experiment.RunScale1M(p)
			if err != nil {
				return err
			}
			rc.Section(r.Render())
			return nil
		}},
		{Name: "ablations", Run: func(ctx context.Context, rc *runner.RunContext) error {
			r1, err := experiment.RunAblationHamming(10, 32768, 0xAB1)
			if err != nil {
				return err
			}
			rc.Section(r1.Render())
			r2, err := experiment.RunAblationIntersect(21, 32768, 0xAB2)
			if err != nil {
				return err
			}
			rc.Section(r2.Render())
			return nil
		}},
	}
}
