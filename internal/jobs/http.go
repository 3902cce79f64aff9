package jobs

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Handler returns the job service's HTTP API, mountable under /jobs on
// platformd's mux:
//
//	POST   /jobs             submit a Spec, returns the queued Job
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's snapshot (progress, results)
//	DELETE /jobs/{id}        request cancellation
//	GET    /jobs/{id}/events NDJSON event stream until the job is terminal
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", m.handleList)
	mux.HandleFunc("GET /jobs/{id}", m.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", m.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", m.handleEvents)
	return mux
}

// httpError is the jobs API error envelope — the same shape adapi uses, so
// clients share one decoder.
type httpError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeJobsError(w http.ResponseWriter, status int, code, msg string) {
	var body httpError
	body.Error.Code = code
	body.Error.Message = msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeJobsJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxSpecBytes bounds a submitted job spec's body, matching the adapi
// server's default MaxBodyBytes.
const maxSpecBytes = 1 << 20

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJobsError(w, http.StatusRequestEntityTooLarge, "too_large", "job spec body over 1 MiB")
			return
		}
		writeJobsError(w, http.StatusBadRequest, "bad_request", "malformed job spec: "+err.Error())
		return
	}
	job, err := m.Submit(spec)
	if err != nil {
		status, code := http.StatusBadRequest, "bad_request"
		if errors.Is(err, ErrClosed) {
			status, code = http.StatusServiceUnavailable, "unavailable"
		}
		writeJobsError(w, status, code, err.Error())
		return
	}
	writeJobsJSON(w, http.StatusAccepted, job)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJobsJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	job, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeJobsError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJobsJSON(w, http.StatusOK, job)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := m.Cancel(r.PathValue("id")); err != nil {
		writeJobsError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents streams a job's events as NDJSON. The first line is the
// job's current state (so late subscribers see where they joined); the
// stream ends when the job goes terminal or the client disconnects. Slow
// readers lose progress ticks, never state transitions' finality: on
// stream close the handler re-reads the snapshot and, if terminal, emits
// the final state as the last line.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, err := m.Watch(id)
	if err != nil {
		writeJobsError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	defer cancel()
	job, err := m.Get(id)
	if err != nil {
		writeJobsError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	send := func(ev Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	last := Event{Type: EventState, JobID: id, State: job.State, Error: job.Error}
	if !send(last) {
		return
	}
	if job.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				// Channel closed (terminal or manager shutdown): report the
				// final state in case the terminal event was dropped.
				if fin, err := m.Get(id); err == nil && fin.State.Terminal() &&
					!(last.Type == EventState && last.State == fin.State) {
					send(Event{Type: EventState, JobID: id, State: fin.State, Error: fin.Error})
				}
				return
			}
			if !send(ev) {
				return
			}
			if ev.Type == EventState {
				last = ev
				if ev.State.Terminal() {
					return
				}
			}
		}
	}
}
