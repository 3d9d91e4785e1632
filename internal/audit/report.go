package audit

import (
	"encoding/json"
	"io"
)

// Edge names one page↔vertex relation the completeness checker flagged.
type Edge struct {
	Page   string `json:"page"`
	Vertex string `json:"vertex"`
}

// Report is the outcome of one audit sweep. Slices are sorted, so a report
// over deterministic inputs serializes byte-identically.
type Report struct {
	Name string `json:"name"`
	// LSN is the pinned snapshot LSN every shadow render ran at.
	LSN int64 `json:"lsn"`
	// Pages is how many pages were shadow-rendered.
	Pages int `json:"pages"`
	// Samples is how many captured responses the sweep classified.
	Samples int `json:"samples"`
	// Dropped is the cumulative count of samples lost to the bounded
	// buffer.
	Dropped int64 `json:"dropped"`
	// Shed counts sampled refusals — nothing was served, so there is
	// nothing to verify, but the count keeps the ledger complete.
	Shed int `json:"shed"`
	// Unchecked counts samples for paths outside the shadow page set.
	Unchecked int `json:"unchecked"`
	// Coherent: served bytes matched the shadow render exactly.
	Coherent int `json:"coherent"`
	// BoundedStale: divergence explained by committed-but-unpropagated
	// changes or a degraded serve within its freshness budget.
	BoundedStale int `json:"bounded_stale"`
	// ViolatingStale: explained divergence whose in-flight propagation had
	// already exceeded the freshness SLO when the response was served.
	ViolatingStale int `json:"violating_stale"`
	// Incoherent: divergence no propagation explains — a consistency bug.
	Incoherent      int      `json:"incoherent"`
	IncoherentPages []string `json:"incoherent_pages,omitempty"`
	// MissingEdges are observed reads the dependence graph never declared;
	// SuperfluousEdges are declared db-level dependencies no read observed.
	MissingEdges     []Edge `json:"missing_edges,omitempty"`
	SuperfluousEdges []Edge `json:"superfluous_edges,omitempty"`
}

// WriteJSON serializes the report as indented JSON (the /debug/audit
// payload).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
