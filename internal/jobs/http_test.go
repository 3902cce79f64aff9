package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// httpManager serves a manager's API from an httptest server. The factory
// runs real (small) audits so end-to-end submissions reach terminal states.
func httpManager(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	m := openTestManager(t, t.TempDir(), deploymentFactory())
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func TestHTTPSubmitGetCancel(t *testing.T) {
	_, srv := httpManager(t)

	body := `{"experiments":["fig1"],"k":5,"universe":2000,"tenant":"t1"}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status = %d, want 202", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.ID == "" || job.Tenant != "t1" {
		t.Fatalf("submitted job = %+v", job)
	}

	resp, err = http.Get(srv.URL + "/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.ID != job.ID {
		t.Fatalf("GET returned job %s, want %s", got.ID, job.ID)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d, want 204", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []Job
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 1 {
		t.Fatalf("GET /jobs returned %d jobs, want 1", len(all))
	}
}

// TestHTTPSubmitRefusesDeploymentOnlyPhase: a job runs on providers alone,
// so a spec naming a deployment-only phase is refused at submission with
// 400, before anything is queued, rather than failing after the phases
// before it have run.
func TestHTTPSubmitRefusesDeploymentOnlyPhase(t *testing.T) {
	m, srv := httpManager(t)
	body := `{"experiments":["fig1","lookalike"],"k":5,"universe":2000}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env httpError
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || env.Error.Code != "bad_request" {
		t.Fatalf("POST /jobs = %d %+v (%v), want 400 bad_request", resp.StatusCode, env, err)
	}
	if !strings.Contains(env.Error.Message, "lookalike") {
		t.Errorf("error %q does not name the phase", env.Error.Message)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("%d jobs queued, want none", len(jobs))
	}
	if queued, running := m.Stats(); queued != 0 || running != 0 {
		t.Fatalf("stats: %d queued, %d running", queued, running)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := httpManager(t)

	assertEnvelope := func(resp *http.Response, status int, code string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("status = %d, want %d", resp.StatusCode, status)
		}
		var env httpError
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("error body not the shared envelope: %v", err)
		}
		if env.Error.Code != code {
			t.Fatalf("error code = %q, want %q", env.Error.Code, code)
		}
	}

	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(resp, http.StatusBadRequest, "bad_request")

	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"experiments":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(resp, http.StatusBadRequest, "bad_request")

	// An oversized spec — a tenant name padded past the 1 MiB bound — is
	// refused before it is decoded in full.
	huge := `{"experiments":["fig1"],"tenant":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(resp, http.StatusRequestEntityTooLarge, "too_large")

	resp, err = http.Get(srv.URL + "/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(resp, http.StatusNotFound, "not_found")

	resp, err = http.Get(srv.URL + "/jobs/j99999999/events")
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(resp, http.StatusNotFound, "not_found")
}

// The event stream opens with the job's current state and ends with its
// terminal state, NDJSON-framed.
func TestHTTPEventStream(t *testing.T) {
	m, srv := httpManager(t)
	job, err := m.Submit(Spec{Experiments: []string{"fig1"}, K: 5, Seed: 3, Universe: 2000})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	if events[0].Type != EventState {
		t.Fatalf("stream did not open with a state event: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != EventState || !last.State.Terminal() {
		t.Fatalf("stream did not end with a terminal state: %+v", last)
	}
	if last.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", last.State, last.Error)
	}
	sawPhase := false
	for _, ev := range events {
		if ev.Type == EventPhase && ev.Phase == "fig1" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Fatal("stream carried no phase-completion event")
	}
}

// A subscriber joining after the job is terminal gets exactly the final
// state line and a closed stream, not a hang.
func TestHTTPEventStreamLateSubscriber(t *testing.T) {
	m, srv := httpManager(t)
	job, err := m.Submit(Spec{Experiments: []string{"fig1"}, K: 5, Seed: 3, Universe: 2000})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, job.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s, want done", fin.State)
	}

	client := http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 1 || events[0].State != StateDone {
		t.Fatalf("late subscriber saw %+v, want one done state line", events)
	}
}

func TestHTTPCancelUnknownJob(t *testing.T) {
	_, srv := httpManager(t)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/j99999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE of unknown job: status %d, want 404", resp.StatusCode)
	}
}
