package main

import (
	"bytes"
	"io"
	"testing"

	"dupserve/internal/audit"
)

// TestAuditFlagsPlantedBugExactly proves the auditor flags the planted
// defects — and nothing else. The missing edge and the incoherent page
// are named precisely; the well-behaved /scoreboard stays clean.
func TestAuditFlagsPlantedBugExactly(t *testing.T) {
	rep, err := runDemo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Pages != 3 || rep.Samples != 3 {
		t.Fatalf("pages=%d samples=%d, want 3 and 3", rep.Pages, rep.Samples)
	}

	// Exactly one incoherent sample, and it is /champion.
	if rep.Incoherent != 1 {
		t.Fatalf("incoherent=%d, want exactly 1", rep.Incoherent)
	}
	if len(rep.IncoherentPages) != 1 || rep.IncoherentPages[0] != pageChampion {
		t.Fatalf("incoherent pages = %v, want [%s]", rep.IncoherentPages, pageChampion)
	}
	// The other two samples are coherent — no collateral verdicts.
	if rep.Coherent != 2 || rep.BoundedStale != 0 || rep.ViolatingStale != 0 ||
		rep.Shed != 0 || rep.Unchecked != 0 {
		t.Fatalf("collateral verdicts: %+v", rep)
	}

	// Exactly one missing edge, naming the bypassed row.
	want := audit.Edge{Page: pageChampion, Vertex: "db:scores:team:alpha"}
	if len(rep.MissingEdges) != 1 || rep.MissingEdges[0] != want {
		t.Fatalf("missing edges = %v, want [%+v]", rep.MissingEdges, want)
	}
	// Exactly one superfluous edge, naming the never-read declaration.
	wantSup := audit.Edge{Page: pageHistory, Vertex: "db:scores:team:retired"}
	if len(rep.SuperfluousEdges) != 1 || rep.SuperfluousEdges[0] != wantSup {
		t.Fatalf("superfluous edges = %v, want [%+v]", rep.SuperfluousEdges, wantSup)
	}
}

// TestDemoDeterministic runs the demo twice and requires byte-identical
// reports — the fixture is usable as a golden reference.
func TestDemoDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := runDemo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := runDemo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("reports differ:\n--- first\n%s--- second\n%s", a.String(), b.String())
	}
}
