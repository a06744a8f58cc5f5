package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"wcm3d/internal/service"
)

// TestRunMatchesDaemonSchedule holds the CLI and the daemon to one stack
// stage: POST /v1/schedules' in-process form reports exactly what
// `schedule -json` prints for the same stack and width.
func TestRunMatchesDaemonSchedule(t *testing.T) {
	var cli bytes.Buffer
	if err := run(&cli, "", "b11/0,b11/3", 8, "", "ours", "tight", 1, "reduced", true); err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = svc.Shutdown(ctx)
	}()
	rep, err := svc.ScheduleStack(context.Background(), service.ScheduleRequest{
		Profiles: []string{"b11/0", "b11/3"}, Width: 8, Seed: 1, Method: "ours", Timing: "tight", Budget: "reduced",
	})
	if err != nil {
		t.Fatal(err)
	}
	var daemon bytes.Buffer
	enc := json.NewEncoder(&daemon)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]*service.ScheduleReport{rep}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), daemon.Bytes()) {
		t.Errorf("schedule and wcmd disagree:\nschedule:\n%s\nwcmd:\n%s", cli.Bytes(), daemon.Bytes())
	}
}
