package weblog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestFormatParseRoundTrip(t *testing.T) {
	e := Entry{
		Client: "10.9.8.7",
		Time:   time.Date(1998, 2, 13, 12, 34, 56, 0, time.UTC),
		Path:   "/en/home/day07",
		Status: 200,
		Bytes:  10240,
	}
	got, err := ParseEntry(e.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got.Client != e.Client || got.Path != e.Path || got.Status != e.Status || got.Bytes != e.Bytes {
		t.Fatalf("round trip = %+v", got)
	}
	if !got.Time.Equal(e.Time) {
		t.Fatalf("time = %v, want %v", got.Time, e.Time)
	}
}

func TestParseEntryMalformed(t *testing.T) {
	for _, line := range []string{
		"",
		"justoneword",
		`1.2.3.4 - - [bad time] "GET / HTTP/1.0" 200 1`,
		`1.2.3.4 - - [13/Feb/1998:12:00:00 +0000] no quotes 200 1`,
		`1.2.3.4 - - [13/Feb/1998:12:00:00 +0000] "GET" 200 1`,
		`1.2.3.4 - - [13/Feb/1998:12:00:00 +0000] "GET / HTTP/1.0" x 1`,
		`1.2.3.4 - - [13/Feb/1998:12:00:00 +0000] "GET / HTTP/1.0" 200 x`,
		`1.2.3.4 - - [13/Feb/1998:12:00:00 +0000] "GET / HTTP/1.0" 200`,
	} {
		if _, err := ParseEntry(line); err == nil {
			t.Fatalf("accepted malformed line %q", line)
		}
	}
}

// TestWriterConcurrent logs from 8 goroutines against a counting clock:
// every line must parse, and the timestamps in the file must never
// decrease, because each one is taken under the lock that orders the lines.
func TestWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Date(1998, 2, 13, 0, 0, 0, 0, time.UTC)
	var tick atomic.Int64
	w.SetClock(func() time.Time { return base.Add(time.Duration(tick.Add(1)) * time.Second) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := w.Log(fmt.Sprintf("c%d", g), "/p", 200, 10); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4000 {
		t.Fatalf("lines = %d, want 4000", len(lines))
	}
	var last time.Time
	for i, l := range lines {
		e, err := ParseEntry(l)
		if err != nil {
			t.Fatalf("unparseable interleaved line %q: %v", l, err)
		}
		if e.Time.Before(last) {
			t.Fatalf("line %d at %v precedes the line before it (%v)", i, e.Time, last)
		}
		last = e.Time
	}
	if rep := w.Report(0); rep.Entries != 4000 || rep.Clients != 8 {
		t.Fatalf("report entries=%d clients=%d, want 4000 and 8", rep.Entries, rep.Clients)
	}
}

// buildLog logs a synthetic sequence into a Writer over a buffer: client A
// browses deep (4 hits), client B is satisfied at the entry page, client C
// makes two visits separated by more than the gap, the second a 404.
func buildLog(t *testing.T) (*Writer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Date(1998, 2, 13, 10, 0, 0, 0, time.UTC)
	now := base
	w.SetClock(func() time.Time { return now })

	for i, p := range []string{"/en/home/day07", "/en/sports", "/en/sports/alpine", "/en/sports/alpine/alpine:e1"} {
		now = base.Add(time.Duration(i) * time.Minute)
		if err := w.Log("clientA", p, 200, 1000); err != nil {
			t.Fatal(err)
		}
	}
	now = base
	if err := w.Log("clientB", "/en/home/day07", 200, 1000); err != nil {
		t.Fatal(err)
	}
	now = base
	if err := w.Log("clientC", "/en/news", 200, 500); err != nil {
		t.Fatal(err)
	}
	now = base.Add(2 * time.Hour) // new visit
	if err := w.Log("clientC", "/en/news/n001", 404, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return w, &buf
}

// TestAnalyzeReport checks the report of buildLog's sequence both as the
// Writer aggregated it and as Analyze reads it back from the log.
func TestAnalyzeReport(t *testing.T) {
	w, buf := buildLog(t)
	parsed, err := Analyze(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]Report{"Writer.Report": w.Report(3), "Analyze": parsed} {
		if rep.Entries != 7 || rep.Clients != 3 {
			t.Fatalf("%s: entries=%d clients=%d", name, rep.Entries, rep.Clients)
		}
		if rep.Errors != 1 {
			t.Fatalf("%s: errors = %d (the 404)", name, rep.Errors)
		}
		if rep.Visits != 4 {
			t.Fatalf("%s: visits = %d, want 4 (A:1, B:1, C:2)", name, rep.Visits)
		}
		// Hits/visit = 7/4.
		if rep.HitsPerVisit < 1.74 || rep.HitsPerVisit > 1.76 {
			t.Fatalf("%s: hits/visit = %v", name, rep.HitsPerVisit)
		}
		// Satisfied at entry: B's visit and both C visits = 3 of 4.
		if rep.EntrySatisfied != 0.75 {
			t.Fatalf("%s: entry satisfied = %v", name, rep.EntrySatisfied)
		}
		if rep.BySection["/en/home"] != 2 || rep.BySection["/en/sports"] != 3 {
			t.Fatalf("%s: sections = %v", name, rep.BySection)
		}
		// The 404 counts under the one not-found bucket, not its path.
		if rep.BySection["/en/news"] != 1 || rep.BySection[notFound] != 1 {
			t.Fatalf("%s: sections = %v, want the 404 under %q", name, rep.BySection, notFound)
		}
		if len(rep.TopPages) != 3 || rep.TopPages[0].Hits < rep.TopPages[1].Hits {
			t.Fatalf("%s: top pages = %v", name, rep.TopPages)
		}
	}
	if !reflect.DeepEqual(w.Report(3), parsed) {
		t.Fatalf("Writer.Report = %+v\nAnalyze = %+v", w.Report(3), parsed)
	}
}

// TestWriterReportMatchesAnalyze logs a random mix of clients, paths,
// statuses and sub-second times, some gaps longer than VisitGap: the live
// report must equal the report Analyze reads back from the Writer's own
// output.
func TestWriterReportMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	now := time.Date(1998, 2, 7, 0, 0, 0, 0, time.UTC)
	w.SetClock(func() time.Time {
		now = now.Add(time.Duration(rng.Int63n(int64(VisitGap / 4))))
		return now
	})
	statuses := []int{200, 200, 200, 404, 503}
	for i := 0; i < 5000; i++ {
		client := fmt.Sprintf("10.0.0.%d", rng.Intn(40))
		path := fmt.Sprintf("/en/s%d/p%d", rng.Intn(5), rng.Intn(60))
		if err := w.Log(client, path, statuses[rng.Intn(len(statuses))], rng.Intn(4000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := Analyze(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if live := w.Report(0); !reflect.DeepEqual(live, parsed) {
		t.Fatalf("Writer.Report = %+v\nAnalyze = %+v", live, parsed)
	}
}

// TestNotFoundBucketBoundsTheAggregate asks for thousands of distinct
// missing paths: they all land in one page and one section.
func TestNotFoundBucketBoundsTheAggregate(t *testing.T) {
	w := NewWriter(nil)
	for i := 0; i < 3000; i++ {
		if err := w.Log("scanner", fmt.Sprintf("/probe/%d/admin.php", i), 404, 0); err != nil {
			t.Fatal(err)
		}
	}
	w.Log("scanner", "/en/home/day01", 200, 100)
	rep := w.Report(0)
	want := []PageCount{{Path: notFound, Hits: 3000}, {Path: "/en/home/day01", Hits: 1}}
	if !reflect.DeepEqual(rep.TopPages, want) {
		t.Fatalf("top pages = %v, want %v", rep.TopPages, want)
	}
	if len(rep.BySection) != 2 || rep.BySection[notFound] != 3000 || rep.Errors != 3000 {
		t.Fatalf("sections = %v errors = %d", rep.BySection, rep.Errors)
	}
}

// TestLogWithoutSinkDoesNotAllocate: a Writer with no sink formats
// nothing, so logging a client and path it has already seen allocates
// nothing.
func TestLogWithoutSinkDoesNotAllocate(t *testing.T) {
	w := NewWriter(nil)
	w.Log("10.0.0.1", "/en/home/day01", 200, 100)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		w.Log("10.0.0.1", "/en/home/day01", 200, 100)
	}); allocs != 0 {
		t.Fatalf("Log allocates %.1f times per call, want 0", allocs)
	}
	if rep := w.Report(1); rep.Entries != 1002 || rep.TopPages[0].Hits != 1002 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestAnalyzeSkipsMalformed(t *testing.T) {
	in := strings.NewReader("garbage line\n" +
		Entry{Client: "c", Time: time.Now(), Path: "/p", Status: 200, Bytes: 1}.Format() + "\n")
	rep, err := Analyze(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || rep.Errors != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSection(t *testing.T) {
	cases := map[string]string{
		"/en/sports/alpine/e1": "/en/sports",
		"/en/home/day07":       "/en/home",
		"/en":                  "/en",
		"/":                    "/",
	}
	for in, want := range cases {
		if got := section(in); got != want {
			t.Fatalf("section(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: any entry with printable fields round-trips through
// Format/ParseEntry.
func TestRoundTripProperty(t *testing.T) {
	f := func(client uint16, status uint8, size uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := Entry{
			Client: fmt.Sprintf("10.0.%d.%d", client>>8, client&0xff),
			Time:   time.Date(1998, 2, 1+rng.Intn(16), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC),
			Path:   fmt.Sprintf("/en/p%d", rng.Intn(1000)),
			Status: 200 + int(status)%400,
			Bytes:  int(size),
		}
		got, err := ParseEntry(e.Format())
		return err == nil && got.Client == e.Client && got.Path == e.Path &&
			got.Status == e.Status && got.Bytes == e.Bytes && got.Time.Equal(e.Time)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseEntry(b *testing.B) {
	line := Entry{Client: "10.1.2.3", Time: time.Now(), Path: "/en/home/day07", Status: 200, Bytes: 10240}.Format()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEntry(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze10k(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Date(1998, 2, 13, 0, 0, 0, 0, time.UTC)
	i := 0
	w.SetClock(func() time.Time { i++; return base.Add(time.Duration(i) * time.Second) })
	for j := 0; j < 10000; j++ {
		w.Log(fmt.Sprintf("c%d", j%200), fmt.Sprintf("/en/p%d", j%500), 200, 1000)
	}
	w.Flush()
	data := buf.Bytes()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, err := Analyze(bytes.NewReader(data), 10); err != nil {
			b.Fatal(err)
		}
	}
}
