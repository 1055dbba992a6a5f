// Command nachobench regenerates the paper's evaluation tables and figures
// (Section 6.2) as text reports: Figure 5 (execution time), Figure 6
// (checkpoints), Figure 7 (NVM transfers), Table 2 (re-execution overhead),
// Table 3 (component ablation), Figure 8 (cache design space) and the
// Table 1 feature matrix.
//
// Each experiment's run matrix is fanned out across -j worker goroutines
// (default: all CPUs). Reports are byte-identical for every -j value; the
// per-experiment timing summary goes to stderr so stdout stays exactly
// reproducible.
//
// With -store, results persist in a content-addressed store across
// invocations: a re-run of an experiment whose matrix is already stored
// executes zero simulations and prints a byte-identical report. With
// -serve-jobs the process becomes a campaign coordinator — experiments are
// submitted to an HTTP job queue and executed by `nachobench -worker <url>`
// processes sharing the same -store directory — and the report is
// regenerated from the warm store once the fleet drains the queue.
//
// Usage:
//
//	nachobench                  # regenerate everything, parallel
//	nachobench -exp fig5 -j 1   # one experiment, sequential
//	nachobench -exp fig7 -bench aes,sha
//	nachobench -store runs/     # warm re-runs execute nothing
//	nachobench -store runs/ -serve-jobs -exp fig5     # coordinator
//	nachobench -store runs/ -worker http://host:9100  # worker
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nacho"
	"nacho/internal/emu"
	"nacho/internal/jobs"
	"nacho/internal/profiling"
)

func main() {
	var (
		exp     = flag.String("exp", "all", `experiment: all, none (serve jobs only, with -serve-jobs), or one of `+strings.Join(nacho.ExperimentNames(), ", "))
		bench   = flag.String("bench", "", "comma-separated benchmark subset (default: the experiment's paper set)")
		csv     = flag.Bool("csv", false, "emit CSV (the original artifact's log format) instead of tables")
		j       = flag.Int("j", 0, "parallel simulation workers (0 = all CPUs, 1 = sequential)")
		timings = flag.Bool("timings", true, "print per-experiment timing summaries to stderr")
		engine  = flag.String("engine", "auto", "execution engine for all simulations: "+emu.Engines)
		serve   = flag.String("serve", "", "serve live telemetry (/metrics, /status, /dashboard, /debug/pprof) on this address during the sweep")

		storeDir  = flag.String("store", "", "persistent content-addressed run store directory (results survive restarts; warm re-runs execute nothing)")
		serveJobs = flag.Bool("serve-jobs", false, "coordinate: expose the campaign job API (/jobs) on the -serve address (default 127.0.0.1:0) and distribute experiments to -worker processes")
		workerURL = flag.String("worker", "", "work: lease and execute cells from the job server at this URL until it drains (share its -store directory)")

		traceCampaign = flag.String("trace-campaign", "", "write a Perfetto trace of the whole campaign (experiment/run spans) to this file")
		ledger        = flag.String("ledger", "", "append one JSON record per run to this ledger file")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit (diagnoses worker-pool contention)")
		blockprofile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	)
	flag.Parse()
	nacho.SetParallelism(*j)
	if _, err := nacho.SetDefaultEngine(*engine); err != nil {
		fmt.Fprintln(os.Stderr, "nachobench:", err)
		os.Exit(1)
	}

	profiles := profiling.Profiles{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	}
	if profiles.Enabled() {
		stop, err := profiling.Start(profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "nachobench:", err)
			}
		}()
	}

	if *storeDir != "" {
		rs, err := nacho.OpenRunStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			os.Exit(1)
		}
		defer func() {
			if err := rs.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nachobench:", err)
			}
			st := rs.Stats()
			fmt.Fprintf(os.Stderr, "nachobench: store %s: %d hits, %d misses, %d puts, %d corrupt evicted\n",
				rs.Dir(), st.Hits, st.Misses, st.Puts, st.CorruptEvicted)
		}()
	}

	if *workerURL != "" {
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "nachobench: -worker needs the coordinator's -store directory (run results travel through it)")
			os.Exit(1)
		}
		w := &jobs.Worker{BaseURL: *workerURL, Name: fmt.Sprintf("nachobench-%d", os.Getpid())}
		n, err := w.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nachobench: worker drained: %d cells executed\n", n)
		return
	}

	var jobsvc *nacho.JobService
	if *serveJobs && *serve == "" {
		*serve = "127.0.0.1:0"
	}
	if *serve != "" {
		ts, err := nacho.ServeTelemetry(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			os.Exit(1)
		}
		defer ts.Close()
		fmt.Fprintf(os.Stderr, "nachobench: telemetry on http://%s\n", ts.Addr())
		if *serveJobs {
			jobsvc = ts.ServeJobs()
			fmt.Fprintf(os.Stderr, "nachobench: jobs on http://%s\n", ts.Addr())
		}
	}

	campaign, err := nacho.StartCampaign(nacho.CampaignConfig{
		Name: "nachobench", TracePath: *traceCampaign, LedgerPath: *ledger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nachobench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := campaign.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
		}
	}()

	var subset []string
	if *bench != "" {
		subset = strings.Split(*bench, ",")
	}

	names := nacho.ExperimentNames()
	switch *exp {
	case "all":
	case "none":
		if jobsvc == nil {
			fmt.Fprintln(os.Stderr, "nachobench: -exp none only makes sense with -serve-jobs")
			campaign.Close()
			os.Exit(1)
		}
		names = nil
	default:
		names = []string{*exp}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		if jobsvc != nil {
			// Coordinate: the fleet fills the shared store; the regeneration
			// below then renders the report without executing anything.
			id, err := jobsvc.SubmitExperiment(name, subset)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nachobench:", err)
				campaign.Close()
				os.Exit(1)
			}
			executed, deduped, err := jobsvc.Wait(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nachobench:", err)
				campaign.Close()
				os.Exit(1)
			}
			if *timings {
				fmt.Fprintf(os.Stderr, "%s: fleet executed %d cells (%d already stored)\n", name, executed, deduped)
			}
		}
		out, err := nacho.RunExperiment(name, subset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			campaign.Close() // flush the partial trace/ledger before exiting
			os.Exit(1)
		}
		if *csv {
			fmt.Print(out.CSV)
		} else {
			fmt.Print(out.Text)
		}
		if *timings && out.Timing != "" {
			fmt.Fprintf(os.Stderr, "%s %s\n", name, out.Timing)
		}
	}
	if jobsvc != nil {
		if *exp == "none" {
			// Serve-only coordinator: keep accepting jobs (nachofuzz -submit,
			// other processes) until someone POSTs /jobs/shutdown and the
			// queue drains.
			fmt.Fprintln(os.Stderr, "nachobench: serving jobs until shutdown")
			jobsvc.AwaitShutdown()
		} else {
			jobsvc.Shutdown()
		}
		// Drain the fleet: workers are told to exit on their next poll; give
		// every idle poll loop (100ms) a chance to hear it before the
		// listener goes away with this process.
		time.Sleep(500 * time.Millisecond)
	}
}
