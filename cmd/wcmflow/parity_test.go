package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"wcm3d/internal/service"
)

// TestRunMatchesDaemonJobs holds the CLI and the daemon to one per-die
// stage: a wcmd job per method on b11/Die0 (tight, ATPG, reduced budget)
// reports exactly what `wcmflow -compare -json` prints for the same die.
func TestRunMatchesDaemonJobs(t *testing.T) {
	var cli bytes.Buffer
	if err := run(&cli, "b11/0", "", "ours", "tight", 1, true, true, "reduced", true); err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = svc.Shutdown(ctx)
	}()
	var reports []*service.Report
	for _, m := range []string{"fullwrap", "li", "agrawal", "ours"} {
		st, err := svc.Submit(service.JobRequest{
			Profile: "b11/0", Seed: 1, Method: m, Timing: "tight", ATPG: true, Budget: "reduced",
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for st.State != service.StateDone {
			if st.State == service.StateFailed || st.State == service.StateCanceled || time.Now().After(deadline) {
				t.Fatalf("job %s (%s): state %s %s", st.ID, m, st.State, st.Error)
			}
			time.Sleep(2 * time.Millisecond)
			st, _ = svc.Job(st.ID)
		}
		reports = append(reports, st.Result)
	}
	var daemon bytes.Buffer
	enc := json.NewEncoder(&daemon)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), daemon.Bytes()) {
		t.Errorf("wcmflow and wcmd disagree:\nwcmflow:\n%s\nwcmd:\n%s", cli.Bytes(), daemon.Bytes())
	}
}
