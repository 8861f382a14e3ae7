package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"tmi3d/internal/core"
	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// The experiment endpoint serves the paper's tables and figures as rendered
// text — the same artifacts cmd/experiments writes, fetchable one at a time.
// Renders are deterministic per (id, scale, seed), so they cache in the same
// store as the engine's artifacts; a full-scale table computed once is served
// from disk forever after.

// experimentRegistry maps the public experiment ids onto their study
// renderers. Mirrors the driver table in cmd/experiments.
var experimentRegistry = map[string]func(*core.Study) (string, error){
	"table1":  func(*core.Study) (string, error) { return core.RenderTable1(), nil },
	"table2":  func(*core.Study) (string, error) { return core.RenderTable2() },
	"table3":  func(*core.Study) (string, error) { return core.RenderTable3(), nil },
	"table4":  func(s *core.Study) (string, error) { return s.RenderSummary(tech.N45) },
	"table5":  func(s *core.Study) (string, error) { return s.RenderTable5() },
	"table6":  func(*core.Study) (string, error) { return core.RenderTable6(), nil },
	"table7":  func(s *core.Study) (string, error) { return s.RenderSummary(tech.N7) },
	"table8":  func(s *core.Study) (string, error) { return s.RenderTable8() },
	"table9":  func(s *core.Study) (string, error) { return s.RenderTable9() },
	"table10": func(*core.Study) (string, error) { return core.RenderTable10(), nil },
	"table11": func(*core.Study) (string, error) { return core.RenderTable11() },
	"table12": func(s *core.Study) (string, error) { return s.RenderTable12() },
	"table13": func(s *core.Study) (string, error) { return s.RenderDetail(tech.N45) },
	"table14": func(s *core.Study) (string, error) { return s.RenderDetail(tech.N7) },
	"table15": func(s *core.Study) (string, error) { return s.RenderTable15() },
	"table16": func(s *core.Study) (string, error) { return s.RenderTable16() },
	"table17": func(s *core.Study) (string, error) { return s.RenderTable17() },
	"fig4":    func(s *core.Study) (string, error) { return s.RenderFig4() },
	"fig6":    func(s *core.Study) (string, error) { return s.RenderFig6() },
	"fig10":   func(s *core.Study) (string, error) { return s.RenderFig10() },
	"fig11":   func(s *core.Study) (string, error) { return s.RenderFig11(nil) },
}

// ExperimentIDs lists the experiment ids the daemon serves, sorted.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(experimentRegistry))
	for id := range experimentRegistry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// study returns a fresh study for one render at a (scale, seed) point. Its
// flows decode the engine's report artifacts, so renders share every flow
// through the engine's tiers, and the daemon holds no decoded results
// between renders.
func (s *Server) study(scale float64, seed uint64) *core.Study {
	st := core.NewStudy(scale)
	st.Seed = seed
	st.Runner = func(cfg flow.Config) (*flow.Result, error) {
		data, _, err := s.engine.Report(cfg)
		if err != nil {
			return nil, err
		}
		return flow.DecodeResult(data)
	}
	return st
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := strings.ToLower(r.PathValue("id"))
	gen, ok := experimentRegistry[id]
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("unknown experiment %q (one of %s)", id, strings.Join(ExperimentIDs(), ", "))})
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
		if err != nil || f <= 0 {
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
			text, err := gen(s.study(scale, seed))
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
