package adapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/pii"
	"repro/internal/pixel"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/xrand"
)

// Audience-management wire types. Unlike the size-estimate endpoints, which
// speak each platform's scraped dialect, audience management uses one
// common JSON shape: the paper never reverse-engineered these endpoints, so
// fidelity matters less than coverage of the feature (§2.1).

// createPIIAudienceRequest is the body of POST /{name}/audiences.
type createPIIAudienceRequest struct {
	Name    string             `json:"name"`
	Records []pii.HashedRecord `json:"records"`
}

// createLookalikeRequest is the body of POST /{name}/audiences/lookalike.
type createLookalikeRequest struct {
	Name     string  `json:"name"`
	SourceID int     `json:"source_id"`
	Ratio    float64 `json:"ratio"`
}

// registerSiteRequest is the body of POST /{name}/pixel/sites: an
// advertiser installing the platform's tracking pixel on their site. The
// visitor-model parameters stand in for the organic traffic the live
// platforms would observe.
type registerSiteRequest struct {
	Domain     string                           `json:"domain"`
	BaseRate   float64                          `json:"base_rate"`
	GenderLoad float64                          `json:"gender_load"`
	AgeLoad    [population.NumAgeRanges]float64 `json:"age_load"`
	Factor     int                              `json:"factor"`
}

// registerSiteResponse returns the registered site id.
type registerSiteResponse struct {
	SiteID int `json:"site_id"`
}

// createPixelAudienceRequest is the body of POST /{name}/audiences/pixel.
type createPixelAudienceRequest struct {
	Name       string `json:"name"`
	SiteID     int    `json:"site_id"`
	Event      string `json:"event"`
	WindowDays int    `json:"window_days"`
}

// eventFromString parses a pixel event name.
func eventFromString(s string) (pixel.Event, error) {
	switch s {
	case "page-view":
		return pixel.EventPageView, nil
	case "add-to-cart":
		return pixel.EventAddToCart, nil
	case "purchase":
		return pixel.EventPurchase, nil
	default:
		return 0, fmt.Errorf("%w: %q", pixel.ErrUnknownEvent, s)
	}
}

// registerAudienceRoutes adds the audience-management endpoints for one
// interface handler.
func (s *Server) registerAudienceRoutes(h *ifaceHandler) {
	prefix := "/" + h.p.Name()
	s.mux.Handle(prefix+"/audiences", h.methodSwitch("audiences", map[string]func(http.ResponseWriter, *http.Request){
		http.MethodGet:  h.handleListAudiences,
		http.MethodPost: h.handleCreatePIIAudience,
	}))
	s.mux.Handle(prefix+"/audiences/lookalike", h.wrap(h.handleCreateLookalike, http.MethodPost, "audiences_lookalike"))
	s.mux.Handle(prefix+"/audiences/pixel", h.wrap(h.handleCreatePixelAudience, http.MethodPost, "audiences_pixel"))
	s.mux.Handle(prefix+"/pixel/sites", h.wrap(h.handleRegisterSite, http.MethodPost, "pixel_sites"))
}

// methodSwitch is wrap for endpoints with several methods.
func (h *ifaceHandler) methodSwitch(door string, routes map[string]func(http.ResponseWriter, *http.Request)) http.Handler {
	m := h.doorMetrics(door)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fn, ok := routes[r.Method]
		if !ok {
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed", r.Method))
			return
		}
		m.total.Inc()
		if h.throttled(w) {
			return
		}
		h.opts.logf("adapi: %s %s", r.Method, r.URL.Path)
		start := time.Now()
		fn(w, r)
		m.latency.Observe(time.Since(start))
	})
}

// decodeJSONBody parses a bounded JSON request body.
func (h *ifaceHandler) decodeJSONBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, err.Error())
		return false
	}
	return true
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for an error status; nothing more to do.
		return
	}
}

// audienceErrStatus classifies audience-management errors.
func audienceErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, platform.ErrAudienceTooSmall):
		return http.StatusBadRequest, "audience_too_small"
	case errors.Is(err, platform.ErrUnknownAudience):
		return http.StatusNotFound, "unknown_audience"
	case errors.Is(err, platform.ErrLookalikeOfLookalike):
		return http.StatusBadRequest, "lookalike_of_lookalike"
	case errors.Is(err, pixel.ErrUnknownSite):
		return http.StatusNotFound, "unknown_site"
	case errors.Is(err, pixel.ErrUnknownEvent), errors.Is(err, pixel.ErrBadWindow):
		return http.StatusBadRequest, "bad_pixel_request"
	default:
		return http.StatusBadRequest, codeMalformedRequest
	}
}

func (h *ifaceHandler) handleListAudiences(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.p.CustomAudiences())
}

func (h *ifaceHandler) handleCreatePIIAudience(w http.ResponseWriter, r *http.Request) {
	var req createPIIAudienceRequest
	if !h.decodeJSONBody(w, r, &req) {
		return
	}
	info, err := h.p.CreatePIIAudience(req.Name, req.Records)
	if err != nil {
		status, code := audienceErrStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	writeJSON(w, info)
}

func (h *ifaceHandler) handleCreateLookalike(w http.ResponseWriter, r *http.Request) {
	var req createLookalikeRequest
	if !h.decodeJSONBody(w, r, &req) {
		return
	}
	info, err := h.p.CreateLookalike(req.Name, req.SourceID, req.Ratio)
	if err != nil {
		status, code := audienceErrStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	writeJSON(w, info)
}

func (h *ifaceHandler) handleRegisterSite(w http.ResponseWriter, r *http.Request) {
	var req registerSiteRequest
	if !h.decodeJSONBody(w, r, &req) {
		return
	}
	if req.BaseRate <= 0 || req.BaseRate >= 1 {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, "base_rate must be in (0, 1)")
		return
	}
	model := population.AttrModel{
		ID:         0, // derived below from the domain for stable audiences
		BaseLogit:  population.Logit(req.BaseRate),
		GenderLoad: req.GenderLoad,
		AgeLoad:    req.AgeLoad,
		Factor:     req.Factor,
	}
	model.ID = siteModelID(h.p.Name(), req.Domain)
	id, err := h.p.Tracker().AddSite(pixel.Site{Domain: req.Domain, Visitors: model})
	if err != nil {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, err.Error())
		return
	}
	writeJSON(w, registerSiteResponse{SiteID: id})
}

func (h *ifaceHandler) handleCreatePixelAudience(w http.ResponseWriter, r *http.Request) {
	var req createPixelAudienceRequest
	if !h.decodeJSONBody(w, r, &req) {
		return
	}
	event, err := eventFromString(req.Event)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_pixel_request", err.Error())
		return
	}
	info, err := h.p.CreatePixelAudience(req.Name, req.SiteID, event, req.WindowDays)
	if err != nil {
		status, code := audienceErrStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	writeJSON(w, info)
}

// siteModelID derives a stable attribute-model id for a registered site so
// its visitor audience is deterministic across restarts.
func siteModelID(platformName, domain string) uint64 {
	return xrand.HashString("pixel/" + platformName + "/" + domain)
}

// --- client side ---

// postJSON issues one JSON management call and decodes the response.
func (c *Client) postJSON(ctx context.Context, path string, reqBody, respBody any) error {
	raw, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	out, err := c.do(ctx, http.MethodPost, c.base+"/"+c.name+path, raw)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, respBody)
}

// CreatePIIAudience uploads hashed PII records and returns the created
// custom audience's metadata.
func (c *Client) CreatePIIAudience(ctx context.Context, name string, records []pii.HashedRecord) (platform.CustomAudienceInfo, error) {
	var info platform.CustomAudienceInfo
	err := c.postJSON(ctx, "/audiences", createPIIAudienceRequest{Name: name, Records: records}, &info)
	return info, err
}

// CreateLookalike expands a stored audience remotely.
func (c *Client) CreateLookalike(ctx context.Context, name string, sourceID int, ratio float64) (platform.CustomAudienceInfo, error) {
	var info platform.CustomAudienceInfo
	err := c.postJSON(ctx, "/audiences/lookalike", createLookalikeRequest{
		Name: name, SourceID: sourceID, Ratio: ratio,
	}, &info)
	return info, err
}

// RegisterSite installs a tracking pixel on a simulated site and returns
// its id.
func (c *Client) RegisterSite(ctx context.Context, domain string, baseRate, genderLoad float64, ageLoad [population.NumAgeRanges]float64, factor int) (int, error) {
	var resp registerSiteResponse
	err := c.postJSON(ctx, "/pixel/sites", registerSiteRequest{
		Domain: domain, BaseRate: baseRate, GenderLoad: genderLoad,
		AgeLoad: ageLoad, Factor: factor,
	}, &resp)
	return resp.SiteID, err
}

// CreatePixelAudience builds a website-activity audience remotely.
func (c *Client) CreatePixelAudience(ctx context.Context, name string, siteID int, event string, windowDays int) (platform.CustomAudienceInfo, error) {
	var info platform.CustomAudienceInfo
	err := c.postJSON(ctx, "/audiences/pixel", createPixelAudienceRequest{
		Name: name, SiteID: siteID, Event: event, WindowDays: windowDays,
	}, &info)
	return info, err
}

// ListAudiences fetches the stored audiences' metadata.
func (c *Client) ListAudiences(ctx context.Context) ([]platform.CustomAudienceInfo, error) {
	out, err := c.do(ctx, http.MethodGet, c.base+"/"+c.name+"/audiences", nil)
	if err != nil {
		return nil, err
	}
	var infos []platform.CustomAudienceInfo
	if err := json.Unmarshal(out, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}
