// Command ibcamp runs simulation campaigns crash-tolerantly.
//
//	ibcamp run -spec sweep.json -store ./results            # run (or resume) a campaign
//	ibcamp run -spec sweep.json -store ./results -degrade   # aggregate partials, annotate holes
//	ibcamp expand -spec sweep.json                          # list the job DAG without running
//	ibcamp verify -store ./results                          # audit every stored artifact
//	ibcamp worker                                           # internal: one job, spec on stdin
//
// The coordinator re-execs this binary as `ibcamp worker` per job
// attempt, so a worker crash (panic, OOM kill, SIGKILL) costs one
// attempt of one job, never the campaign. Results live in a
// content-addressed store keyed by each job's canonical input hash;
// interrupting the coordinator (SIGINT/SIGTERM) and rerunning the same
// command resumes, skipping completed jobs and reproducing the
// aggregate table byte-identically. Only the table goes to stdout —
// progress and diagnostics go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ibasim/internal/campaign"
)

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ibcamp <run|expand|verify|worker> [flags]")
	fmt.Fprintln(w, "  run    -spec FILE -store DIR [-workers N] [-timeout D] [-retries N]")
	fmt.Fprintln(w, "         [-backoff D] [-backoff-max D] [-hung-after D] [-degrade] [-q]")
	fmt.Fprintln(w, "  expand -spec FILE")
	fmt.Fprintln(w, "  verify -store DIR")
	fmt.Fprintln(w, "  worker (internal; job JSON on stdin, framed result on stdout)")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ibcamp:", err)
	os.Exit(1)
}

func loadPlan(specPath string) (*campaign.Plan, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return spec.Expand()
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("ibcamp run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file")
	storeDir := fs.String("store", "", "result store directory (created if missing)")
	workers := fs.Int("workers", 2, "concurrent worker processes")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-attempt wall-clock limit")
	retries := fs.Int("retries", 2, "retries per job after the first attempt")
	backoff := fs.Duration("backoff", 250*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
	backoffMax := fs.Duration("backoff-max", 10*time.Second, "retry backoff ceiling")
	hungAfter := fs.Duration("hung-after", 10*time.Second, "kill a worker silent this long")
	degrade := fs.Bool("degrade", false, "aggregate partial results, annotating missing seeds per cell")
	quiet := fs.Bool("q", false, "suppress progress output")
	fs.Parse(args)
	if *specPath == "" || *storeDir == "" {
		fail(errors.New("run needs -spec and -store"))
	}
	plan, err := loadPlan(*specPath)
	if err != nil {
		fail(err)
	}
	store, err := campaign.Open(*storeDir)
	if err != nil {
		fail(err)
	}
	var log io.Writer = os.Stderr
	if *quiet {
		log = io.Discard
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := campaign.Run(ctx, plan, store, campaign.Options{
		Workers: *workers, Timeout: *timeout, Retries: *retries,
		BackoffBase: *backoff, BackoffMax: *backoffMax, HungAfter: *hungAfter,
		Degrade: *degrade, Log: log,
	})
	if err != nil {
		if rep != nil && ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "ibcamp:", err)
			fmt.Fprintln(os.Stderr, "ibcamp: completed jobs are stored; rerun the same command to resume")
			os.Exit(3)
		}
		fail(err)
	}
	if err := rep.Table.Write(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "ibcamp: done: %d job(s) — %d run, %d cached, %d retried attempt(s)\n",
		len(rep.Outcomes), rep.Done, rep.Cached, rep.Retried)
}

func cmdExpand(args []string) {
	fs := flag.NewFlagSet("ibcamp expand", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file")
	fs.Parse(args)
	if *specPath == "" {
		fail(errors.New("expand needs -spec"))
	}
	plan, err := loadPlan(*specPath)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# campaign %s: %d job(s), %d group(s)\n", plan.Spec.Name, len(plan.Jobs), len(plan.Groups))
	fmt.Println("# hash\tsize\tpkt\tpattern\tfrac\tload\tseed")
	for _, j := range plan.Jobs {
		s := j.Spec
		fmt.Printf("%s\t%d\t%d\t%s\t%.2f\t%.4f\t%d\n",
			j.Hash, s.Switches, s.PacketSize, s.Pattern.String(), s.AdaptiveFraction, s.Load, s.Seed)
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("ibcamp verify", flag.ExitOnError)
	storeDir := fs.String("store", "", "result store directory")
	fs.Parse(args)
	if *storeDir == "" {
		fail(errors.New("verify needs -store"))
	}
	store, err := campaign.Open(*storeDir)
	if err != nil {
		fail(err)
	}
	entries, torn, err := store.Verify()
	if err != nil {
		fail(err)
	}
	fmt.Printf("store %s: %d verified entr%s, %d torn temp file(s)\n",
		*storeDir, entries, plural(entries, "y", "ies"), len(torn))
	for _, t := range torn {
		fmt.Println("torn:", t)
	}
	if len(torn) > 0 {
		os.Exit(1)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "expand":
		cmdExpand(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "worker":
		os.Exit(campaign.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "ibcamp: unknown command %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
}
