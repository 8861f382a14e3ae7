package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"tmi3d/internal/core"
)

// The experiment endpoint serves the paper's tables and figures as rendered
// text — the same artifacts cmd/experiments writes, fetchable one at a time.
// Renders are deterministic per (id, scale, seed), so they cache in the same
// store as the engine's artifacts; a full-scale table computed once is served
// from disk forever after.

// study returns a fresh study for one render at a (scale, seed) point, run
// on the daemon's engine: renders share every flow through the engine's
// tiers, and the daemon holds no decoded results between renders.
func (s *Server) study(scale float64, seed uint64) *core.Study {
	st := core.NewStudy(scale)
	st.Seed = seed
	st.Runner = core.EngineRunner(s.engine)
	return st
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := strings.ToLower(r.PathValue("id"))
	exp, ok := core.LookupExperiment(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("unknown experiment %q (one of %s)", id, strings.Join(core.ExperimentIDs(), ", "))})
		return
	}
	// Same strict parsing contract as ParseConfig: a typoed parameter must
	// not quietly serve the default render.
	for k := range r.URL.Query() {
		if k != "scale" && k != "seed" && !reservedParams[k] {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("unknown parameter %q (scale, seed or timeout_ms)", k)})
			return
		}
	}
	scale := 0.5
	if v := r.URL.Query().Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) { // NaN fails f > 0 too; Inf fails MaxScale below
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "param scale must be a positive number"})
			return
		}
		scale = f
	}
	if scale > s.cfg.MaxScale {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("scale %g exceeds server limit %g", scale, s.cfg.MaxScale)})
		return
	}
	var seed uint64
	if v := r.URL.Query().Get("seed"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "param seed must be an unsigned integer"})
			return
		}
		seed = u
	}
	key := fmt.Sprintf("v1|exp|%s|scale=%s|seed=%d",
		id, strconv.FormatFloat(scale, 'g', -1, 64), seed)
	store := s.engine.Store()
	data, ok, err := store.Get(key)
	if err != nil {
		// A store failure degrades to recomputation, not a failed request.
		s.logger.Warn("store get failed", "key", key, "error", err.Error())
	}
	source := "disk"
	if ok {
		s.metrics.Add("tmi3d_cache_hits_total", `tier="disk"`, 1)
	} else {
		data, source, err = s.compute(r.Context(), key, func() ([]byte, error) {
			text, err := exp.Render(s.study(scale, seed))
			if err != nil {
				return nil, err
			}
			if perr := store.Put(key, []byte(text)); perr != nil {
				// A store failure degrades persistence, not correctness.
				s.logger.Error("store put failed", "key", key, "error", perr.Error())
			}
			return []byte(text), nil
		})
	}
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("X-Cache", source)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(data)
}
