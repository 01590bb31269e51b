//go:build unix

package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"flov/internal/service"
	"flov/internal/service/client"
)

// TestFrontDoorStreamReadsMarkerBeforeFeed: a worker appends its last
// point lines and publishes the done marker between two reads of a live
// stream. The stream must still send those lines before its summary.
// The done marker is a FIFO here, so the test lands both writes while
// the stream is blocked reading the marker.
func TestFrontDoorStreamReadsMarkerBeforeFeed(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})

	points := mustPoints(t, testSpec(0.1, 0.2))
	st, err := client.New(srv.URL).Submit(context.Background(), testSpec(0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(store.donePath(st.ID), 0o644); err != nil {
		t.Fatal(err)
	}

	// Stream from line 1: only the accepted line is on the feed yet. The
	// front door flushes the headers before its first read.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}

	// Opening the FIFO for writing waits until the stream opens it to
	// read the marker.
	opened := make(chan *os.File, 1)
	go func() {
		f, _ := os.OpenFile(store.donePath(st.ID), os.O_WRONLY, 0)
		opened <- f
	}()
	var marker *os.File
	select {
	case marker = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream never read the done marker")
	}
	if marker == nil {
		t.Fatal("open the done marker FIFO for writing failed")
	}
	for i, r := range referenceRows(t, points) {
		appendPoint(t, store, st.ID, i, 1, r)
	}
	data, err := json.Marshal(DoneRecord{State: service.StateDone, FinishedMS: time.Now().UnixMilli()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := marker.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := marker.Close(); err != nil {
		t.Fatal(err)
	}

	lines := readStream(t, resp)
	if len(lines) != len(points)+1 {
		t.Fatalf("stream = %q, want %d point lines and the summary", lines, len(points))
	}
	for _, line := range lines[:len(points)] {
		if !strings.Contains(line, `"type":"point"`) {
			t.Fatalf("stream = %q, want the point lines first", lines)
		}
	}
	if !strings.Contains(lines[len(points)], `"type":"summary"`) {
		t.Fatalf("stream = %q, want it to end with the summary", lines)
	}
}
