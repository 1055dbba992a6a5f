package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nacho"
	"nacho/internal/harness"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// paper-regen regenerates every report of `nachobench -exp all`, in its
// order, through nacho.RunExperiment with default settings: verified runs,
// engine auto, a run cache per experiment, no run store. An op is one
// requested cell of an experiment's run matrix; table1, which runs nothing,
// counts as one op. As for a user of `nachobench -exp all`, every op is
// issued when the pass starts and delivered with its checked report. The
// inputs are the paper's evaluation, so the seed changes nothing.

// reportDigests are the SHA-256 digests of every report's text at the commit
// that defined this benchmark. The reports are deterministic: any change in
// them is a change in the simulated results.
var reportDigests = map[string]string{
	"table1":          "9352dff0e60825247b66d6cb97f281ea02813030067364c6f7f2faa374249056",
	"fig5":            "7d754c46dfe265f3dffd9c6230db6221cf813d7bc7506faebc3928e9e759fe64",
	"fig6":            "d7230ef35045723d9d5836222b2554825b1ab44b0bf27b7bf3cb1eb0ce18e39f",
	"fig7":            "ac65b9219621baada1ecb564495113690ae2dbae85dbc05753140b890923890d",
	"table2":          "3633953d81085118a49d105485121e96da57af8014b5145f9cdaf3635c1b4258",
	"table3":          "beff5cf472f1db3472424e26d904046c9210d1bb200e37cd6fb3cd7755704946",
	"fig8":            "2d467b95a85160637910ceb24b37935acb4e6223b70f78b828f4a31fc3aa961f",
	"ext-adaptive":    "e043813775d1bf0ae8787a89cc069bcc346d29b62f53d0d8703bd3426da45a02",
	"ext-energy":      "bf66df18edf15dccd341e514d0abb8fde343d3b59f3e01920f8ea45778fc7e40",
	"ext-wt":          "e1dead3e93c3b79f071bdc3e68bac6b855ab1dbd940cc615ab356a11491cec55",
	"ext-table2-long": "32bf11ae513e6e54b39236976dc0a7a4e5c9e3d30ce1f00a1618b81b69986afd",
	"ext-fp":          "862057d9b4a96f41e16e0729bb9691fa61d1b2715140943409e752c6acf35b9a",
	"ext-seeds":       "5b0f850519809ad45051389f91de268b70920e26b2eb5b00327a0fc88c4187b5",
}

// goldenReports are the repository's pinned report snapshots; every row they
// hold must appear unchanged in the full report.
var goldenReports = map[string]string{
	"fig5":   "internal/harness/testdata/fig5_golden.txt",
	"table3": "internal/harness/testdata/table3_golden.txt",
}

type paperRegen struct {
	cells   map[string]int // requested cells per experiment
	goldens map[string]string
	builds  buildTimes

	ledger       ledgerTap
	tracedPasses int
	lastCSV      map[string]string // reports of the last pass, as CSV
}

func (w *paperRegen) setup(_ int64, m metricSet) error {
	w.cells = map[string]int{}
	requested, unique := 0, map[string]bool{}
	for _, name := range experiments {
		specs, err := harness.ExperimentSpecs(name, nil)
		if err != nil {
			return err
		}
		w.cells[name] = len(specs)
		requested += len(specs)
		for _, sp := range specs {
			d, err := sp.Digest()
			if err != nil {
				return err
			}
			unique[d] = true
		}
	}
	m.set("harness.cells_requested", float64(requested), "count")
	m.set("harness.cells_unique", float64(len(unique)), "count")

	w.goldens = map[string]string{}
	for name, path := range goldenReports {
		b, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			return err
		}
		w.goldens[name] = string(b)
	}

	names := append(program.Names(), program.LongNames()...)
	for _, name := range names {
		p, _ := program.ByName(name)
		if _, err := w.builds.benchmarkImage(p, systems.KindNACHO, harness.DefaultRunConfig()); err != nil {
			return err
		}
	}
	w.builds.report(m)
	return nil
}

func (w *paperRegen) pass(_ int, sp *spans) passResult {
	traced := sp != nil
	if traced {
		defer w.ledger.install()()
		w.tracedPasses++
	}
	var res passResult
	w.lastCSV = map[string]string{}
	start := time.Now()
	root := sp.begin("pass", -1)
	defer sp.end(root)
	for _, name := range experiments {
		id := sp.begin("experiment:"+name, root)
		var (
			out *nacho.ExperimentOutput
			err error
		)
		withLabels(traced, func() { out, err = nacho.RunExperiment(name, nil) },
			"workload", "paper-regen", "experiment", name)
		sp.end(id)
		withLabels(traced, func() { err = w.check(name, out, err) }, labelPhase, phaseCheck)
		lat := time.Since(start)

		n := max(w.cells[name], 1)
		res.ops += n
		for i := 0; i < n; i++ {
			res.opLatency = append(res.opLatency, lat)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: paper-regen: %s: %v\n", name, err)
			res.failed += n
			continue
		}
		w.lastCSV[name] = out.CSV
	}
	return res
}

// check verifies one regenerated report against its recorded digest and,
// where the repository pins one, its golden snapshot.
func (w *paperRegen) check(name string, out *nacho.ExperimentOutput, runErr error) error {
	if runErr != nil {
		return runErr
	}
	sum := sha256.Sum256([]byte(out.Text))
	got := hex.EncodeToString(sum[:])
	if want, ok := reportDigests[name]; !ok || got != want {
		return fmt.Errorf("report digest %s, recorded %q", got, want)
	}
	if golden, ok := w.goldens[name]; ok {
		return matchGolden(out.Text, golden)
	}
	return nil
}

// matchGolden checks that report holds golden: the same lines up to the
// header separator, and every golden row among the report's rows. A golden
// may cover a subset of the report's benchmarks, so rows are compared field
// by field and column padding is ignored.
func matchGolden(report, golden string) error {
	rHead, rRows := splitReport(report)
	gHead, gRows := splitReport(golden)
	if strings.Join(rHead, "\n") != strings.Join(gHead, "\n") {
		return fmt.Errorf("report heading %q, golden %q", rHead, gHead)
	}
	have := map[string]bool{}
	for _, r := range rRows {
		have[r] = true
	}
	for _, g := range gRows {
		if !have[g] {
			return fmt.Errorf("golden row %q missing from the report", g)
		}
	}
	if len(gRows) == 0 {
		return fmt.Errorf("golden has no rows")
	}
	return nil
}

// splitReport splits a text report into its heading lines (before the dashed
// separator) and its rows, each with fields single-space separated.
func splitReport(text string) (head, rows []string) {
	inRows := false
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		norm := strings.Join(strings.Fields(line), " ")
		if inRows {
			rows = append(rows, norm)
			continue
		}
		if strings.Trim(line, "- ") == "" && strings.Contains(line, "-") {
			inRows = true // the dashed separator's widths depend on the rows
			continue
		}
		head = append(head, norm)
	}
	return head, rows
}

func (w *paperRegen) layers(sp *spans, _ []sample, m metricSet) error {
	dur := durationsMs(sp.snapshot())
	var expWall float64
	for _, name := range experiments {
		if d := dur["experiment:"+name]; len(d) > 0 {
			m.set("harness.experiment_s."+name, median(d)/1000, "s")
			expWall += sum(d) / 1000
		}
	}

	st, err := w.ledger.stats()
	if err != nil {
		return err
	}
	st.report(m, w.tracedPasses)
	m.set("harness.cell_p50_ms", percentile(st.wallMs, 0.50), "ms")
	m.set("harness.cell_p95_ms", percentile(st.wallMs, 0.95), "ms")
	if expWall > 0 {
		m.set("harness.pool_util", float64(st.wallMicros)/1e6/(float64(runtime.NumCPU())*expWall), "fraction")
	}

	// Simulated counts: the fig5 NACHO runs (paper default configuration)
	// of every benchmark, re-run with a verifier attached.
	var counts simCounts
	for _, p := range program.All() {
		img, err := p.Build()
		if err != nil {
			return err
		}
		if err := counts.verifiedRun(img, systems.KindNACHO, harness.DefaultRunConfig()); err != nil {
			return err
		}
	}
	counts.report(m)
	return w.simMetrics(m)
}

// simMetrics sets the two simulated headline results and prints the model's
// error against the paper's claims beside them.
func (w *paperRegen) simMetrics(m metricSet) error {
	fig5, err := csvColumns(w.lastCSV["fig5"])
	if err != nil {
		return fmt.Errorf("fig5: %w", err)
	}
	var nachoT, clankT []float64
	for i, size := range fig5["cache"] {
		if size != "512B" {
			continue
		}
		n, err1 := strconv.ParseFloat(fig5["nacho"][i], 64)
		c, err2 := strconv.ParseFloat(fig5["clank"][i], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("fig5 row %d: not a ratio", i)
		}
		nachoT, clankT = append(nachoT, n), append(clankT, c)
	}
	fig7, err := csvColumns(w.lastCSV["fig7"])
	if err != nil {
		return fmt.Errorf("fig7: %w", err)
	}
	var nvm []float64
	for _, v := range fig7["nacho"] {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
		nvm = append(nvm, f)
	}
	if len(nachoT) == 0 || len(nvm) == 0 {
		return fmt.Errorf("fig5 or fig7 has no rows")
	}
	normTime := sum(nachoT) / float64(len(nachoT))
	nvmRatio := sum(nvm) / float64(len(nvm))
	m.set("sim_nacho_norm_time", normTime, "ratio")
	m.set("sim_nacho_nvm_vs_clank", nvmRatio, "ratio")

	// Paper, Section 6.2: at 512 B NACHO's mean execution time is 79% below
	// Clank's (Figure 5) and it moves 82% fewer NVM bytes (Figure 7).
	below := 1 - normTime/(sum(clankT)/float64(len(clankT)))
	fmt.Fprintf(os.Stderr, "perfbench: sim_nacho_norm_time %.4f: NACHO %.1f%% below Clank, paper 79%%: error %+.1f points\n",
		normTime, 100*below, 100*(below-0.79))
	fmt.Fprintf(os.Stderr, "perfbench: sim_nacho_nvm_vs_clank %.4f, paper 0.18: error %+.1f%%\n",
		nvmRatio, 100*(nvmRatio/0.18-1))
	return nil
}

// csvColumns parses a report's CSV into columns by header name.
func csvColumns(text string) (map[string][]string, error) {
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("no rows")
	}
	cols := map[string][]string{}
	for _, row := range recs[1:] {
		for i, h := range recs[0] {
			if i < len(row) {
				cols[h] = append(cols[h], row[i])
			}
		}
	}
	return cols, nil
}
