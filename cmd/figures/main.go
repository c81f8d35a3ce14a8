// Command figures regenerates the data behind every figure of the paper's
// evaluation section (Figures 3–10) — plus the generated at-scale figures
// 11–14 (fat-tree fairness with unresponsive blasters, churn convergence
// tails) — and writes one CSV per figure plus a comparison summary. Figures are independent simulations, so the batch
// runs on a worker pool; output is byte-identical for any -parallel value
// because results are keyed by figure, not by completion order.
//
//	figures -outdir out                   # all figures, GOMAXPROCS workers
//	figures -outdir out -parallel 1       # serial
//	figures -fig 5 -fig 6                 # just the startup comparison
//	figures -fig 5 -obs out/obs           # + control-plane telemetry bundle
//
// The flags every command shares (-seed -backend -parallel -obs -progress
// -check -cpuprofile -memprofile) are documented in internal/cli. Here -obs
// writes one figN.-prefixed bundle per figure, and -check applies each
// figure's own fairness tolerance. The CSVs are byte-identical with
// telemetry or the checker on or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	corelite "repro"
	"repro/internal/cli"
	"repro/internal/trace"
)

// figure binds a figure number to its scenario spec and the series it
// plots. Numbers 3-10 are the paper's evaluation figures; 11-14 are the
// generated at-scale figures (fat-tree topologies from internal/topogen,
// workloads from internal/trafficgen). The slug names output files.
type figure struct {
	num      int
	slug     string
	kind     trace.SeriesKind
	scenario func(int64) corelite.Scenario
	legend   string
}

// atScale adapts the two-argument generated-figure constructors to the
// seed-only signature the table uses.
func atScale(f func(corelite.Scheme, int64) corelite.Scenario, scheme corelite.Scheme) func(int64) corelite.Scenario {
	return func(seed int64) corelite.Scenario { return f(scheme, seed) }
}

func figures() []figure {
	return []figure{
		{3, "fig3", corelite.SeriesAllowed, corelite.Fig3Scenario, "Corelite instantaneous rate, network dynamics (§4.1)"},
		{4, "fig4", corelite.SeriesCumulative, corelite.Fig4Scenario, "Corelite cumulative service, network dynamics (§4.1)"},
		{5, "fig5", corelite.SeriesAllowed, corelite.Fig5Scenario, "Corelite instantaneous rate, simultaneous start (§4.2)"},
		{6, "fig6", corelite.SeriesAllowed, corelite.Fig6Scenario, "CSFQ instantaneous rate, simultaneous start (§4.2)"},
		{7, "fig7", corelite.SeriesAllowed, corelite.Fig7Scenario, "Corelite instantaneous rate, staggered start (§4.3)"},
		{8, "fig8", corelite.SeriesAllowed, corelite.Fig8Scenario, "CSFQ instantaneous rate, staggered start (§4.3)"},
		{9, "fig9", corelite.SeriesAllowed, corelite.Fig9Scenario, "Corelite instantaneous rate, churn (§4.3)"},
		{10, "fig10", corelite.SeriesAllowed, corelite.Fig10Scenario, "CSFQ instantaneous rate, churn (§4.3)"},
		{11, "fairness-at-scale-corelite", corelite.SeriesReceived, atScale(corelite.FairnessAtScaleScenario, corelite.SchemeCorelite), "Corelite goodput, k=8 fat-tree, heavy-tailed + unresponsive (generated)"},
		{12, "fairness-at-scale-csfq", corelite.SeriesReceived, atScale(corelite.FairnessAtScaleScenario, corelite.SchemeCSFQ), "CSFQ goodput, k=8 fat-tree, heavy-tailed + unresponsive (generated)"},
		{13, "churn-tail-corelite", corelite.SeriesAllowed, atScale(corelite.ChurnTailScenario, corelite.SchemeCorelite), "Corelite instantaneous rate, k=4 fat-tree churn + flash crowd (generated)"},
		{14, "churn-tail-csfq", corelite.SeriesAllowed, atScale(corelite.ChurnTailScenario, corelite.SchemeCSFQ), "CSFQ instantaneous rate, k=4 fat-tree churn + flash crowd (generated)"},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// writeGnuplot emits a ready-to-run gnuplot script that renders the
// figure's CSV in the paper's layout (time on x, one line per flow).
func writeGnuplot(path string, fig figure, res *corelite.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ylabel := "alloted rate (pkt/s)"
	if fig.kind == corelite.SeriesCumulative {
		ylabel = "packets delivered"
	}
	fmt.Fprintf(f, "# gnuplot script for figure %s\n", fig.slug)
	fmt.Fprintf(f, "set datafile separator ','\n")
	fmt.Fprintf(f, "set key outside right\n")
	fmt.Fprintf(f, "set xlabel 'time in seconds'\n")
	fmt.Fprintf(f, "set ylabel '%s'\n", ylabel)
	fmt.Fprintf(f, "set title '%s'\n", fig.legend)
	fmt.Fprintf(f, "set terminal pngcairo size 1000,600\n")
	fmt.Fprintf(f, "set output '%s.png'\n", fig.slug)
	fmt.Fprint(f, "plot \\\n")
	for i, fl := range res.Flows {
		sep := ", \\\n"
		if i == len(res.Flows)-1 {
			sep = "\n"
		}
		fmt.Fprintf(f, "  '%s.csv' using 1:%d with lines title 'flow%d'%s",
			fig.slug, i+2, fl.Index, sep)
	}
	return nil
}

type figList []int

func (f *figList) String() string { return fmt.Sprint([]int(*f)) }

func (f *figList) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*f = append(*f, n)
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var f cli.Flags
	f.RegisterPool(fs, 0)
	var figs figList
	outdir := fs.String("outdir", "figures-out", "directory for CSV output")
	fs.Var(&figs, "fig", "figure number to regenerate: 3-10 paper, 11-14 generated at-scale (repeatable; default all)")
	gnuplot := fs.Bool("gnuplot", false, "also write a gnuplot script per figure")
	if err := f.Parse(fs, args); err != nil {
		return err
	}
	want := make(map[int]bool, len(figs))
	for _, n := range figs {
		want[n] = true
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}

	filtered := len(want) > 0
	var selected []figure
	jobs := []corelite.Job{}
	for _, fig := range figures() {
		if filtered && !want[fig.num] {
			continue
		}
		delete(want, fig.num)
		selected = append(selected, fig)
		sc := fig.scenario(f.Seed)
		if f.Check {
			sc.Check = corelite.NewInvariantChecker(corelite.InvariantConfig{
				FairnessTol: corelite.FigureFairnessTol(sc.Name),
			})
		}
		jobs = append(jobs, corelite.Job{
			Name:     fig.slug,
			Scenario: sc,
		})
	}
	if len(want) > 0 {
		var unknown []int
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Ints(unknown)
		return fmt.Errorf("unknown figure numbers %v (figures 3-10 are the paper's, 11-14 the generated at-scale set)", unknown)
	}

	// Per-job lines land on stderr in completion order; the per-figure
	// CSVs and summaries below are emitted in figure order, so files and
	// stdout are byte-identical for any worker count.
	results, err := f.Run(stdout, stderr, jobs)
	if err != nil {
		return err
	}
	for i, r := range results {
		fig := selected[i]
		if r.Err != nil {
			return fmt.Errorf("figure %d: %w", fig.num, r.Err)
		}
		res := r.Output
		path := filepath.Join(*outdir, fig.slug+".csv")
		if err := cli.WriteCSV(path, res, fig.kind); err != nil {
			return fmt.Errorf("figure %d: %w", fig.num, err)
		}
		if *gnuplot {
			gpPath := filepath.Join(*outdir, fig.slug+".gp")
			if err := writeGnuplot(gpPath, fig, res); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "figure %2d: %s\n", fig.num, fig.legend)
		fmt.Fprintf(stdout, "           %s (%d events, %d losses)\n",
			path, res.Events, res.TotalLosses)
		if err := f.Report(stdout, r, "           ", "", fig.slug+"."); err != nil {
			return fmt.Errorf("figure %d: %w", fig.num, err)
		}
		if err := corelite.WriteSummary(stdout, res); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
