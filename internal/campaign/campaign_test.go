package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the worker re-exec shim: when a coordinator
// under test spawns this test binary with IBCAMP_TEST_WORKER set, the
// process becomes a campaign worker (or a misbehaving stand-in)
// instead of running the suite — the same process-isolation boundary
// ibcamp relies on, so tests can SIGKILL workers without touching the
// test process.
func TestMain(m *testing.M) {
	switch os.Getenv("IBCAMP_TEST_WORKER") {
	case "worker":
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	case "torn":
		// A real worker, except that the first process to claim the
		// token file SIGKILLs itself halfway through its result frame.
		os.Exit(WorkerMain(os.Stdin, &tornWriter{w: os.Stdout, token: os.Getenv("IBCAMP_TEST_TOKEN")}, os.Stderr))
	case "fail":
		fmt.Fprintln(os.Stderr, "ibcamp test worker: induced failure")
		os.Exit(1)
	case "hang":
		// No heartbeat, no exit: the hung-worker watchdog's prey.
		time.Sleep(time.Minute)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testOpts builds coordinator options that re-exec this test binary in
// the given worker mode, with fast heartbeats and tight backoff.
func testOpts(t *testing.T, mode string) Options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Workers:     2,
		Timeout:     time.Minute,
		Retries:     2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		HungAfter:   10 * time.Second,
		WorkerCmd:   []string{exe},
		Env:         []string{"IBCAMP_TEST_WORKER=" + mode, "IBCAMP_HB_MS=10"},
		Log:         &testLogWriter{t: t},
	}
}

// tornWriter passes a worker's protocol stream through until its
// result frame. If this process is the one that removes the token
// file, it writes half the frame and SIGKILLs itself: a crash at the
// most delicate point of the protocol, at an exact place every run.
type tornWriter struct {
	w     io.Writer
	token string
}

func (tw *tornWriter) Write(p []byte) (int, error) {
	if !bytes.HasPrefix(p, []byte("ok ")) || os.Remove(tw.token) != nil {
		return tw.w.Write(p)
	}
	tw.w.Write(p[:len(p)/2])
	if self, err := os.FindProcess(os.Getpid()); err == nil {
		self.Kill()
	}
	select {} // the kill is asynchronous; never write the rest
}

type testLogWriter struct{ t *testing.T }

func (w *testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testPlan(t *testing.T) *Plan {
	t.Helper()
	spec, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func tableBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	if rep.Table == nil {
		t.Fatal("report has no table")
	}
	var buf bytes.Buffer
	if err := rep.Table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignEndToEnd: a two-job campaign completes through real
// worker subprocesses, the rerun serves everything from the store, and
// both aggregate byte-identically.
func TestCampaignEndToEnd(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != len(plan.Jobs) || rep.Cached != 0 {
		t.Fatalf("first run: done=%d cached=%d, want %d/0", rep.Done, rep.Cached, len(plan.Jobs))
	}
	first := tableBytes(t, rep)

	rep2, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Done != 0 || rep2.Cached != len(plan.Jobs) {
		t.Fatalf("rerun: done=%d cached=%d, want 0/%d", rep2.Done, rep2.Cached, len(plan.Jobs))
	}
	if !bytes.Equal(first, tableBytes(t, rep2)) {
		t.Fatalf("cached rerun table differs:\n%s\nvs\n%s", first, tableBytes(t, rep2))
	}
	if n, torn, err := st.Verify(); err != nil || n != len(plan.Jobs) || len(torn) != 0 {
		t.Fatalf("Verify = (%d, %v, %v)", n, torn, err)
	}
}

// TestWorkerSIGKILLMidJobRetriesCleanly is the crash-path acceptance
// test: SIGKILL a worker mid-job — halfway through writing its result —
// and require (a) the job is retried
// and the campaign completes, (b) the store holds no torn or invalid
// artifact, and (c) the resumed campaign's aggregate is byte-identical
// to an uninterrupted run's.
func TestWorkerSIGKILLMidJobRetriesCleanly(t *testing.T) {
	plan := testPlan(t)

	cleanStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cleanRep, err := Run(context.Background(), plan, cleanStore, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	clean := tableBytes(t, cleanRep)

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	token := filepath.Join(t.TempDir(), "kill-token")
	if err := os.WriteFile(token, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "torn")
	opts.Env = append(opts.Env, "IBCAMP_TEST_TOKEN="+token)
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(token); !os.IsNotExist(err) {
		t.Fatal("test never killed a worker")
	}
	if rep.Retried < 1 {
		t.Fatalf("killed worker was not retried: %+v", rep.Outcomes)
	}
	if rep.Done != len(plan.Jobs) {
		t.Fatalf("campaign did not complete: %+v", rep)
	}
	n, torn, err := st.Verify()
	if err != nil {
		t.Fatalf("store corrupt after SIGKILL: %v", err)
	}
	if len(torn) != 0 {
		t.Fatalf("torn artifacts after SIGKILL: %v", torn)
	}
	if n != len(plan.Jobs) {
		t.Fatalf("store holds %d entries, want %d", n, len(plan.Jobs))
	}
	if got := tableBytes(t, rep); !bytes.Equal(clean, got) {
		t.Fatalf("post-crash aggregate differs from clean run:\n%s\nvs\n%s", clean, got)
	}
}

// TestResumeSkipsPrepopulatedJobs: results landed by an earlier
// (interrupted) campaign — here, a worker run in-process — are served
// from the store and the finished table still matches a clean run.
func TestResumeSkipsPrepopulatedJobs(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Complete job 0 the way a coordinator would, then "crash" (do
	// nothing else). WorkerMain is the real entry point, run
	// in-process; its framed result is verified and stored.
	input, err := json.Marshal(plan.Jobs[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := WorkerMain(bytes.NewReader(input), &out, &errb); code != 0 {
		t.Fatalf("WorkerMain = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok "+plan.Jobs[0].Hash+" ") {
		t.Fatalf("worker protocol output missing ok frame: %q", out.String())
	}
	body, err := readWorker(&out, func() {})
	if err != nil || body == nil {
		t.Fatalf("readWorker = (%q, %v)", body, err)
	}
	if _, err := DecodeArtifact(body, plan.Jobs[0].Hash); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(plan.Jobs[0].Hash, body); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != 1 || rep.Done != len(plan.Jobs)-1 {
		t.Fatalf("resume: cached=%d done=%d, want 1/%d", rep.Cached, rep.Done, len(plan.Jobs)-1)
	}

	cleanStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cleanRep, err := Run(context.Background(), plan, cleanStore, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(t, cleanRep), tableBytes(t, rep)) {
		t.Fatal("resumed table differs from clean run")
	}
}

// TestReadWorkerFraming: heartbeats are counted, a complete frame
// yields its body, and a frame cut short by a dying worker yields an
// error, never a partial body.
func TestReadWorkerFraming(t *testing.T) {
	beats := 0
	body, err := readWorker(strings.NewReader("hb\nhb\nok abc 5\nhello"), func() { beats++ })
	if err != nil || string(body) != "hello" || beats != 2 {
		t.Fatalf("complete frame: body %q, err %v, beats %d", body, err, beats)
	}
	if body, err := readWorker(strings.NewReader("hb\n"), func() {}); err != nil || body != nil {
		t.Fatalf("no frame: body %q, err %v", body, err)
	}
	for _, cut := range []string{"hb\nok abc 5\nhel", "hb\nok abc", "ok abc x\n", "hb\nok abc 1\nxok abc 1\ny"} {
		if body, err := readWorker(strings.NewReader(cut), func() {}); err == nil {
			t.Errorf("%q: body %q, want an error", cut, body)
		}
	}
}

// TestCorruptEntryIsEvictedAndRerun: a bit-flipped artifact must not
// be served; the coordinator evicts and reruns it.
func TestCorruptEntryIsEvictedAndRerun(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), plan, st, testOpts(t, "worker")); err != nil {
		t.Fatal(err)
	}
	path := st.entryPath(plan.Jobs[0].Hash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1 || rep.Cached != len(plan.Jobs)-1 {
		t.Fatalf("corrupt entry not rerun: done=%d cached=%d", rep.Done, rep.Cached)
	}
	if _, _, err := st.Verify(); err != nil {
		t.Fatalf("store still corrupt: %v", err)
	}
}

// TestDegradeModeAnnotatesMissing: with every worker failing, degrade
// mode still aggregates — empty cells carry explicit missing-seed
// annotations instead of numbers.
func TestDegradeModeAnnotatesMissing(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "fail")
	opts.Retries = -1 // single attempt per job
	opts.Degrade = true
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != len(plan.Jobs) {
		t.Fatalf("failed=%d, want %d", rep.Failed, len(plan.Jobs))
	}
	cell := rep.Table.Cells[0]
	if cell.N != 0 || len(cell.MissingSeeds) != 2 {
		t.Fatalf("cell = %+v, want 0 results and 2 missing seeds", cell)
	}
	out := string(tableBytes(t, rep))
	if !strings.Contains(out, "0/2\t1,2\t-\t-\t-\t-\t-\t-") {
		t.Fatalf("degraded table lacks the missing annotation:\n%s", out)
	}
}

// TestFailedJobsFailTheCampaignWithoutDegrade: exhausting the retry
// budget is an error unless degrade was requested, and the message
// points at resume.
func TestFailedJobsFailTheCampaignWithoutDegrade(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "fail")
	opts.Retries = -1
	rep, err := Run(context.Background(), plan, st, opts)
	if err == nil || !strings.Contains(err.Error(), "exhausted their retry budget") {
		t.Fatalf("Run = %v, want retry-budget error", err)
	}
	if rep == nil || rep.Failed != len(plan.Jobs) {
		t.Fatalf("report = %+v", rep)
	}
}

// TestHungWorkerIsKilled: a worker that stops heartbeating is killed
// by the watchdog and the attempt is classified as hung.
func TestHungWorkerIsKilled(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "hang")
	opts.Retries = -1
	opts.HungAfter = 50 * time.Millisecond
	opts.Degrade = true
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range rep.Outcomes {
		if oc.Status != "failed" || !strings.Contains(oc.Err, "hung") {
			t.Fatalf("outcome = %+v, want hung failure", oc)
		}
	}
}

// TestAttemptTimeoutKills: the per-attempt wall clock fires even when
// heartbeats keep the hang watchdog quiet — here the inverse: a silent
// worker against a generous hang budget still dies at the timeout.
func TestAttemptTimeoutKills(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "hang")
	opts.Retries = -1
	opts.Timeout = 50 * time.Millisecond
	opts.HungAfter = time.Minute
	opts.Degrade = true
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range rep.Outcomes {
		if oc.Status != "failed" || !strings.Contains(oc.Err, "timeout") {
			t.Fatalf("outcome = %+v, want timeout failure", oc)
		}
	}
}

// TestInterruptedRunReportsResumable: a canceled context ends the
// campaign with a resumable error, not a table.
func TestInterruptedRunReportsResumable(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, plan, st, testOpts(t, "worker"))
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("Run on canceled ctx = %v, want interrupted error", err)
	}
	if rep.Skipped != len(plan.Jobs) {
		t.Fatalf("skipped=%d, want %d", rep.Skipped, len(plan.Jobs))
	}
}

// TestBackoffDelayDeterministicAndBounded: the jittered backoff is a
// pure function of (hash, attempt) and stays within [base/2, max].
func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	h1, h2 := testHash(1), testHash(2)
	for attempt := 1; attempt <= 8; attempt++ {
		d := backoffDelay(h1, attempt, base, max)
		if d != backoffDelay(h1, attempt, base, max) {
			t.Fatalf("backoff not deterministic at attempt %d", attempt)
		}
		if d < base/2 || d > max {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base/2, max)
		}
	}
	if backoffDelay(h1, 1, base, max) == backoffDelay(h2, 1, base, max) {
		t.Fatal("different jobs share a jitter (suspicious; seeds should decorrelate)")
	}
}
