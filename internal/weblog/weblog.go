// Package weblog implements access-log writing and analysis. Section 3.1
// of the paper is explicit that the 1998 site design came out of studying
// the 1996 server logs: "The Web server logs collected during the 1996
// games provided significant insight into the design of the 1998 Web site.
// From those logs, we determined that most users were spending too much
// time looking for basic information."
//
// The Writer emits NCSA Common Log Format (the format 1990s httpd servers
// produced and the paper's team analyzed) and reconstructs, as it writes,
// the per-client navigation behaviour those conclusions rest on: hits per
// section, the share of visits satisfied by the entry page, and navigation
// depth before reaching a leaf. Analyze runs the same reconstruction over a
// log file.
package weblog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Entry is one access-log record.
type Entry struct {
	Client string    // client identifier (IP or synthetic session id)
	Time   time.Time // request time
	Path   string    // request path
	Status int       // HTTP status
	Bytes  int       // response size
}

// clfTime is the Common Log Format timestamp layout.
const clfTime = "02/Jan/2006:15:04:05 -0700"

// Format renders the entry in Common Log Format.
func (e Entry) Format() string {
	return fmt.Sprintf("%s - - [%s] \"GET %s HTTP/1.0\" %d %d",
		e.Client, e.Time.Format(clfTime), e.Path, e.Status, e.Bytes)
}

// ParseEntry parses one Common Log Format line as produced by Format (and
// by period httpd servers for GET requests).
func ParseEntry(line string) (Entry, error) {
	var e Entry
	// client - - [time] "GET path HTTP/1.0" status bytes
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return e, fmt.Errorf("weblog: malformed line %q", line)
	}
	e.Client = line[:i]
	lb := strings.IndexByte(line, '[')
	rb := strings.IndexByte(line, ']')
	if lb < 0 || rb < lb {
		return e, fmt.Errorf("weblog: missing timestamp in %q", line)
	}
	ts, err := time.Parse(clfTime, line[lb+1:rb])
	if err != nil {
		return e, fmt.Errorf("weblog: bad timestamp: %w", err)
	}
	e.Time = ts
	lq := strings.IndexByte(line, '"')
	rq := strings.LastIndexByte(line, '"')
	if lq < 0 || rq <= lq {
		return e, fmt.Errorf("weblog: missing request in %q", line)
	}
	req := strings.Fields(line[lq+1 : rq])
	if len(req) < 2 {
		return e, fmt.Errorf("weblog: malformed request in %q", line)
	}
	e.Path = req[1]
	rest := strings.Fields(strings.TrimSpace(line[rq+1:]))
	if len(rest) < 2 {
		return e, fmt.Errorf("weblog: missing status/bytes in %q", line)
	}
	if e.Status, err = strconv.Atoi(rest[0]); err != nil {
		return e, fmt.Errorf("weblog: bad status: %w", err)
	}
	if e.Bytes, err = strconv.Atoi(rest[1]); err != nil {
		return e, fmt.Errorf("weblog: bad bytes: %w", err)
	}
	return e, nil
}

// Writer aggregates requests into everything a Report needs and, given a
// sink, also appends them to it as Common Log Format lines. The aggregate
// is bounded by the distinct pages, sections and clients seen. Safe for
// concurrent use (one request per line, atomically, in timestamp order).
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer // nil: aggregate only
	now func() time.Time

	entries  int
	errors   int
	bytes    int64
	sections map[string]int
	pages    map[string]int
	clients  map[string]*clientState
}

// clientState is one client's visit reconstruction: the visits it has
// closed and the one in progress (cur hits, the last at last).
type clientState struct {
	last   time.Time
	visits int
	hits   int
	single int
	cur    int
}

// NewWriter aggregates every request and, unless w is nil, formats it into
// w. Call Flush before reading what was written.
func NewWriter(w io.Writer) *Writer {
	l := &Writer{
		now:      time.Now,
		sections: make(map[string]int),
		pages:    make(map[string]int),
		clients:  make(map[string]*clientState),
	}
	if w != nil {
		l.w = bufio.NewWriter(w)
	}
	return l
}

// SetClock substitutes the timestamp source (simulated time).
func (l *Writer) SetClock(now func() time.Time) { l.now = now }

// Log records one request. The timestamp is taken under the lock, so lines
// reach the sink and the aggregate in time order. It is truncated to the
// whole second Common Log Format records, so the aggregate sees exactly
// what the file holds.
func (l *Writer) Log(client, path string, status, bytes int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{Client: client, Time: l.now().Truncate(time.Second), Path: path, Status: status, Bytes: bytes}
	l.add(e)
	if l.w == nil {
		return nil
	}
	_, err := l.w.WriteString(e.Format() + "\n")
	return err
}

// Flush drains buffered lines.
func (l *Writer) Flush() error {
	if l.w == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}

// notFound is the one path and section every request answered 404 counts
// under, so clients asking for paths outside the site cannot grow the
// aggregate.
const notFound = "(not found)"

// add folds one entry into the aggregate. The caller holds l.mu or owns l.
func (l *Writer) add(e Entry) {
	l.entries++
	l.bytes += int64(e.Bytes)
	if e.Status >= 400 {
		l.errors++
	}
	if e.Status == 404 {
		l.pages[notFound]++
		l.sections[notFound]++
	} else {
		l.pages[e.Path]++
		l.sections[section(e.Path)]++
	}

	cs, ok := l.clients[e.Client]
	if !ok {
		cs = &clientState{}
		l.clients[e.Client] = cs
	}
	if cs.cur == 0 || e.Time.Sub(cs.last) > VisitGap {
		if cs.cur == 1 {
			cs.single++
		}
		if cs.cur > 0 {
			cs.visits++
			cs.hits += cs.cur
		}
		cs.cur = 0
	}
	cs.cur++
	cs.last = e.Time
}

// Report returns the analysis of every request logged so far, with the
// topN most-requested paths (all of them if topN <= 0). Visits still open
// are closed, on a copy, as at the end of a log.
func (l *Writer) Report(topN int) Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := Report{
		Entries:   l.entries,
		Clients:   len(l.clients),
		Errors:    l.errors,
		Bytes:     l.bytes,
		BySection: make(map[string]int, len(l.sections)),
	}
	for s, n := range l.sections {
		rep.BySection[s] = n
	}

	totalHits, singles := 0, 0
	for _, cs := range l.clients {
		c := *cs
		if c.cur > 0 {
			c.visits++
			c.hits += c.cur
			if c.cur == 1 {
				c.single++
			}
		}
		rep.Visits += c.visits
		totalHits += c.hits
		singles += c.single
	}
	if rep.Visits > 0 {
		rep.HitsPerVisit = float64(totalHits) / float64(rep.Visits)
		rep.EntrySatisfied = float64(singles) / float64(rep.Visits)
	}

	rep.TopPages = make([]PageCount, 0, len(l.pages))
	for p, n := range l.pages {
		rep.TopPages = append(rep.TopPages, PageCount{Path: p, Hits: n})
	}
	sort.Slice(rep.TopPages, func(i, j int) bool {
		if rep.TopPages[i].Hits != rep.TopPages[j].Hits {
			return rep.TopPages[i].Hits > rep.TopPages[j].Hits
		}
		return rep.TopPages[i].Path < rep.TopPages[j].Path
	})
	if topN > 0 && len(rep.TopPages) > topN {
		rep.TopPages = rep.TopPages[:topN]
	}
	return rep
}

// Report is the analysis the 1998 redesign was based on.
type Report struct {
	Entries int
	Clients int
	Errors  int // status >= 400, plus malformed lines in a parsed log
	Bytes   int64
	// BySection counts hits per top section ("/en/sports" -> n). A section
	// is the first two path segments.
	BySection map[string]int
	// TopPages lists the most-requested paths, descending.
	TopPages []PageCount
	// Visits reconstructed per client (a visit ends after VisitGap of
	// inactivity).
	Visits int
	// HitsPerVisit is the mean page fetches per visit — the metric that
	// showed 1996 users "spending too much time looking for basic
	// information".
	HitsPerVisit float64
	// EntrySatisfied is the share of visits consisting of a single hit:
	// the visitor found what they wanted on the entry page (the paper:
	// over 25% for the 1998 design).
	EntrySatisfied float64
}

// PageCount pairs a path with its hit count.
type PageCount struct {
	Path string
	Hits int
}

// VisitGap is the idle period that terminates a reconstructed visit.
const VisitGap = 30 * time.Minute

// Analyze scans a Common Log Format stream into the aggregate of a Writer
// without a sink and returns its report. Malformed lines are counted as
// errors and skipped, not fatal — real 1990s logs were never pristine.
func Analyze(r io.Reader, topN int) (Report, error) {
	l := NewWriter(nil)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := ParseEntry(line)
		if err != nil {
			l.errors++
			continue
		}
		l.add(e)
	}
	return l.Report(topN), sc.Err()
}

// section extracts the first two path segments ("/en/sports/alpine/x" ->
// "/en/sports").
func section(path string) string {
	seg := 0
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			seg++
			if seg == 2 {
				return path[:i]
			}
		}
	}
	return path
}
