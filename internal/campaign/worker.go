package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ibasim"
	"ibasim/internal/experiments"
)

// Worker protocol. The coordinator re-execs this binary as
// `ibcamp worker` with the JobSpec JSON on stdin and one environment
// knob:
//
//	IBCAMP_HB_MS   heartbeat interval in ms (default 500)
//
// The worker emits "hb\n" on stdout immediately and then every
// interval while the simulation runs. On success it emits one framed
// result, "ok <hash> <nbytes>\n" followed by exactly nbytes of encoded
// artifact, and exits 0. Everything human-readable goes to stderr.
//
// The worker never touches the result store: the coordinator verifies
// the framed artifact against the job hash and is the store's only
// writer. Because the job runs in its own process, a panic, OOM kill
// or SIGKILL costs exactly one attempt of one job and leaves nothing
// behind — the coordinator's watchdog sees the heartbeats stop and
// retries.

// DefaultHeartbeat is the worker heartbeat interval when IBCAMP_HB_MS
// is unset.
const DefaultHeartbeat = 500 * time.Millisecond

// WorkerMain is the `ibcamp worker` entry point; returns the process
// exit code. Exit 2 marks protocol/spec errors (not worth retrying in
// principle, though the coordinator treats every failed attempt the
// same: retry up to the budget).
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	hb := DefaultHeartbeat
	if ms := os.Getenv("IBCAMP_HB_MS"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v <= 0 {
			fmt.Fprintf(stderr, "ibcamp worker: bad IBCAMP_HB_MS %q\n", ms)
			return 2
		}
		hb = time.Duration(v) * time.Millisecond
	}
	data, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ibcamp worker: reading job:", err)
		return 2
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var job experiments.JobSpec
	if err := dec.Decode(&job); err != nil {
		fmt.Fprintln(stderr, "ibcamp worker: bad job JSON:", err)
		return 2
	}
	job.Normalize()
	if err := job.Validate(); err != nil {
		fmt.Fprintln(stderr, "ibcamp worker:", err)
		return 2
	}
	// The campaign layer owns FeatureSet validation of the execution
	// hints (the experiments package can't import the root package
	// without a cycle).
	fs := ibasim.FeatureSet{Check: job.Exec.Check, Arb: job.Exec.Arb, Campaign: true}
	if err := fs.Validate(); err != nil {
		fmt.Fprintln(stderr, "ibcamp worker:", err)
		return 2
	}
	hash := job.Hash()

	// stdout is the protocol channel. The heartbeat goroutine is its
	// only writer while the job runs; it has stopped before the result
	// frame goes out, so the two never interleave.
	fmt.Fprintln(stdout, "hb")
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintln(stdout, "hb")
			case <-stop:
				return
			}
		}
	}()

	res, runErr := job.Execute()
	close(stop)
	hbWG.Wait()
	if runErr != nil {
		fmt.Fprintln(stderr, "ibcamp worker:", runErr)
		return 1
	}
	body, err := EncodeArtifact(hash, res)
	if err != nil {
		fmt.Fprintln(stderr, "ibcamp worker: encoding artifact:", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "ok %s %d\n%s", hash, len(body), body); err != nil {
		fmt.Fprintln(stderr, "ibcamp worker: writing result:", err)
		return 1
	}
	return 0
}

// readWorker consumes a worker's protocol stream until EOF, calling
// onHeartbeat per "hb" line, and returns the body of its result frame
// (nil when the worker ended without one). A frame cut short — the
// worker died mid-write — is an error, never a partial body.
func readWorker(r io.Reader, onHeartbeat func()) ([]byte, error) {
	br := bufio.NewReader(r)
	var body []byte
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			if line != "" {
				return nil, fmt.Errorf("worker output ends in a partial line %q", line)
			}
			return body, nil
		}
		if err != nil {
			return nil, err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "hb" {
			onHeartbeat()
			continue
		}
		var hash string
		var n int64
		if _, err := fmt.Sscanf(line, "ok %s %d", &hash, &n); err != nil || n < 0 || body != nil {
			return nil, fmt.Errorf("bad worker protocol line %q", line)
		}
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, br, n); err != nil {
			return nil, fmt.Errorf("worker result %s cut short: %v", hash, err)
		}
		body = buf.Bytes()
	}
}
