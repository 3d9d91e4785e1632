// Package site builds the Olympic Games web site of section 3 of the
// paper: the database schema, the taxonomy of sports, events, athletes,
// countries and news, and the renderers for every dynamic page — home pages
// per day, medal standings, sport and event pages, country and athlete
// pages, and news — composed from shared fragments exactly as Figure 15
// describes.
//
// The construction is parameterized by Spec so tests run a toy site while
// the simulator runs at paper scale (tens of thousands of dynamic pages in
// two languages). Dependencies between pages and database rows are never
// written by hand: they fall out of what each renderer reads, captured by
// the fragment engine.
package site

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/odg"
)

// Spec sizes the site.
type Spec struct {
	Sports         int
	EventsPerSport int
	Athletes       int
	Countries      int
	NewsStories    int
	Days           int
	// EventsPerAthlete is how many events each athlete competes in.
	EventsPerAthlete int
	Languages        []string
	// ExtraNewsLanguages adds news-only translations — the paper: "all
	// news articles were also available in French".
	ExtraNewsLanguages []string
	// Syndication enables the partner results feed (the paper: "the site
	// served a subset of the sport results for the CBS web page"): one
	// JSON feed per sport at /feed/<partner>/<sport>.
	Syndication []string
}

// DefaultSpec returns a toy site for tests and examples.
func DefaultSpec() Spec {
	return Spec{
		Sports: 3, EventsPerSport: 4, Athletes: 60, Countries: 8,
		NewsStories: 10, Days: 4, EventsPerAthlete: 2, Languages: []string{"en"},
	}
}

// PaperSpec returns the 1998-scale site: ~20k+ dynamic pages across two
// languages, events spread over 16 days, participant counts that make one
// result update touch on the order of a hundred pages.
func PaperSpec() Spec {
	return Spec{
		Sports: 10, EventsPerSport: 15, Athletes: 8000, Countries: 72,
		NewsStories: 500, Days: 16, EventsPerAthlete: 1,
		Languages:          []string{"en", "ja"},
		ExtraNewsLanguages: []string{"fr"},
		Syndication:        []string{"cbs"},
	}
}

var sportNames = []string{
	"alpine", "crosscountry", "skijumping", "figureskating", "speedskating",
	"shorttrack", "hockey", "luge", "bobsled", "biathlon", "curling",
	"snowboard", "freestyle", "nordiccombined",
}

var iocCodes = []string{
	"AUT", "GER", "NOR", "JPN", "USA", "RUS", "CAN", "ITA", "FIN", "FRA",
	"SUI", "NED", "KOR", "CHN", "SWE", "CZE", "UKR", "BLR", "KAZ", "POL",
	"AUS", "GBR", "ESP", "BUL", "DEN", "EST", "SLO", "SVK", "LAT", "LTU",
	"HUN", "ROU", "CRO", "BEL", "GRE", "TUR", "ARG", "BRA", "CHI", "MEX",
}

// Event is one competition: the unit whose completion triggers a result
// update.
type Event struct {
	// Key is the results/events row key, "<sport>:e<n>".
	Key string
	// Sport is the sport name.
	Sport string
	// Num is the event number within the sport.
	Num int
	// Day (1-based) is when the event is held.
	Day int
	// Participants are the athlete IDs competing.
	Participants []string
}

// Site is a built site: schema seeded, renderers defined.
type Site struct {
	Spec   Spec
	DB     *db.DB
	Engine *fragment.Engine

	Events       []*Event
	AthleteIDs   []string
	CountryCodes []string
	// athleteCountry maps athlete ID -> country code.
	athleteCountry map[string]string

	pages []string

	mu         sync.Mutex
	currentDay int
}

// Build seeds the schema and taxonomy into database and defines every
// renderer on a new fragment engine wired to registrar.
func Build(spec Spec, database *db.DB, registrar fragment.Registrar) (*Site, error) {
	return build(spec, database, registrar, true)
}

// BuildReplica defines the renderers against a replica database WITHOUT
// seeding it: the schedule, athlete registrations and today rows arrive via
// replication from the master, exactly as each complex's SP2s received
// them. The in-memory taxonomy (events, athlete countries) is derived
// deterministically from spec, so master and replicas agree on it.
func BuildReplica(spec Spec, database *db.DB, registrar fragment.Registrar) (*Site, error) {
	return build(spec, database, registrar, false)
}

func build(spec Spec, database *db.DB, registrar fragment.Registrar, seed bool) (*Site, error) {
	if spec.Sports > len(sportNames) {
		spec.Sports = len(sportNames)
	}
	if spec.Days < 1 {
		spec.Days = 1
	}
	if spec.EventsPerAthlete < 1 {
		spec.EventsPerAthlete = 1
	}
	if len(spec.Languages) == 0 {
		spec.Languages = []string{"en"}
	}
	s := &Site{
		Spec:           spec,
		DB:             database,
		Engine:         fragment.New(fragment.Config{DB: database, Registrar: registrar}),
		athleteCountry: make(map[string]string),
	}
	for _, t := range []string{"events", "results", "medals", "athletes", "news", "today", "photos"} {
		database.CreateTable(t)
	}
	s.buildTaxonomy()
	if seed {
		if err := s.seed(); err != nil {
			return nil, err
		}
	} else {
		s.currentDay = 1
	}
	s.defineFragments()
	s.definePages()
	s.defineSyndication()
	s.defineExtraNews()
	return s, nil
}

// buildTaxonomy constructs sports, events, athletes and countries
// deterministically from the spec.
func (s *Site) buildTaxonomy() {
	for i := 0; i < s.Spec.Countries; i++ {
		if i < len(iocCodes) {
			s.CountryCodes = append(s.CountryCodes, iocCodes[i])
		} else {
			s.CountryCodes = append(s.CountryCodes, fmt.Sprintf("N%02d", i))
		}
	}
	for i := 0; i < s.Spec.Athletes; i++ {
		id := fmt.Sprintf("a%04d", i)
		s.AthleteIDs = append(s.AthleteIDs, id)
		s.athleteCountry[id] = s.CountryCodes[i%len(s.CountryCodes)]
	}
	// Events per sport, spread across days with the real games' density:
	// light opening days, heavy middle weekend and closing weekend.
	schedule := competitionSchedule(s.Spec.Days)
	i := 0
	for si := 0; si < s.Spec.Sports; si++ {
		sport := sportNames[si]
		for e := 0; e < s.Spec.EventsPerSport; e++ {
			ev := &Event{
				Key:   fmt.Sprintf("%s:e%d", sport, e),
				Sport: sport,
				Num:   e,
				Day:   schedule[i%len(schedule)],
			}
			i++
			s.Events = append(s.Events, ev)
		}
	}
	// Assign athletes to events: athlete i belongs to sport i%Sports and
	// competes in EventsPerAthlete consecutive events of that sport.
	if s.Spec.Sports > 0 && s.Spec.EventsPerSport > 0 {
		byKey := make(map[string]*Event, len(s.Events))
		for _, ev := range s.Events {
			byKey[ev.Key] = ev
		}
		for i, id := range s.AthleteIDs {
			sport := sportNames[i%s.Spec.Sports]
			for k := 0; k < s.Spec.EventsPerAthlete; k++ {
				num := (i/s.Spec.Sports + k) % s.Spec.EventsPerSport
				ev := byKey[fmt.Sprintf("%s:e%d", sport, num)]
				ev.Participants = append(ev.Participants, id)
			}
		}
	}
}

// seed writes the static taxonomy (schedule, athlete registrations, today
// rows) into the database in one transaction per table.
func (s *Site) seed() error {
	tx := s.DB.NewTx()
	for _, ev := range s.Events {
		tx.Put("events", ev.Key, map[string]string{
			"sport":        ev.Sport,
			"name":         fmt.Sprintf("%s event %d", ev.Sport, ev.Num),
			"day":          fmt.Sprint(ev.Day),
			"participants": strings.Join(ev.Participants, ","),
		})
	}
	if _, err := s.DB.Commit(tx); err != nil {
		return fmt.Errorf("site: seed events: %w", err)
	}

	tx = s.DB.NewTx()
	for i, id := range s.AthleteIDs {
		sport := sportNames[i%s.Spec.Sports]
		var evs []string
		for k := 0; k < s.Spec.EventsPerAthlete; k++ {
			num := (i/s.Spec.Sports + k) % s.Spec.EventsPerSport
			evs = append(evs, fmt.Sprintf("%s:e%d", sport, num))
		}
		tx.Put("athletes", id, map[string]string{
			"name":    fmt.Sprintf("Athlete %04d", i),
			"country": s.athleteCountry[id],
			"sport":   sport,
			"events":  strings.Join(evs, ","),
		})
	}
	if _, err := s.DB.Commit(tx); err != nil {
		return fmt.Errorf("site: seed athletes: %w", err)
	}

	tx = s.DB.NewTx()
	for d := 1; d <= s.Spec.Days; d++ {
		cur := "0"
		if d == 1 {
			cur = "1"
		}
		tx.Put("today", dayKey(d), map[string]string{"recent": "", "current": cur})
	}
	if _, err := s.DB.Commit(tx); err != nil {
		return fmt.Errorf("site: seed today: %w", err)
	}
	s.currentDay = 1
	return nil
}

func dayKey(d int) string { return fmt.Sprintf("day%02d", d) }

// competitionSchedule returns an expanded day list whose multiplicities
// give the per-day event density. The 16-day games concentrated finals in
// the middle and closing stretches (days 7 and 14 were the update peaks);
// shorter toy schedules fall back to uniform.
func competitionSchedule(days int) []int {
	if days != 16 {
		out := make([]int, days)
		for d := range out {
			out[d] = d + 1
		}
		return out
	}
	weights := []int{2, 2, 3, 3, 3, 4, 6, 4, 3, 5, 4, 3, 3, 6, 3, 2}
	var out []int
	for d, w := range weights {
		for k := 0; k < w; k++ {
			out = append(out, d+1)
		}
	}
	return out
}

// --- Renderers -----------------------------------------------------------

func (s *Site) defineFragments() {
	// Medal standings: the fragment embedded in the current home page and
	// the /medals page. Depends on every medals row plus the table index.
	s.Engine.Define("frag:medals", func(ctx *fragment.Context) ([]byte, error) {
		rows, err := ctx.Scan("medals", "")
		if err != nil {
			return nil, err
		}
		sort.Slice(rows, func(i, j int) bool {
			gi, gj := rows[i].Cols["g"], rows[j].Cols["g"]
			if gi != gj {
				return gi > gj
			}
			return rows[i].Key < rows[j].Key
		})
		ctx.Printf("<table class=medals><tr><th>Country</th><th>G</th><th>S</th><th>B</th></tr>")
		for _, r := range rows {
			ctx.Printf("<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
				r.Key, r.Cols["g"], r.Cols["s"], r.Cols["b"])
		}
		ctx.Printf("</table>")
		return ctx.Bytes(), nil
	})

	// Latest news headlines, newest first.
	s.Engine.Define("frag:news", func(ctx *fragment.Context) ([]byte, error) {
		rows, err := ctx.Scan("news", "")
		if err != nil {
			return nil, err
		}
		ctx.Printf("<ul class=news>")
		for i := len(rows) - 1; i >= 0 && i >= len(rows)-5; i-- {
			ctx.Printf("<li><a href=/news/%s>%s</a></li>", rows[i].Key, rows[i].Cols["headline"])
		}
		ctx.Printf("</ul>")
		return ctx.Bytes(), nil
	})
}

func (s *Site) definePages() {
	for _, lang := range s.Spec.Languages {
		lang := lang
		// Per-day home pages (the 1998 innovation: a fresh home page each
		// day carrying the information most clients came for).
		for d := 1; d <= s.Spec.Days; d++ {
			d := d
			path := fmt.Sprintf("/%s/home/day%02d", lang, d)
			s.addPage(path, func(ctx *fragment.Context) ([]byte, error) {
				row, ok, err := ctx.Get("today", dayKey(d))
				if err != nil {
					return nil, err
				}
				ctx.Printf("<html><head><title>Nagano 1998 - Day %d (%s)</title></head><body>", d, lang)
				if !ok {
					ctx.Printf("<p>The Games have not started.</p></body></html>")
					return ctx.Bytes(), nil
				}
				ctx.Printf("<h1>Day %d</h1>", d)
				ctx.Printf("<h2>Recent results</h2><ul>")
				if rec := row.Cols["recent"]; rec != "" {
					for _, item := range strings.Split(rec, ";") {
						ctx.Printf("<li>%s</li>", item)
					}
				}
				ctx.Printf("</ul>")
				if row.Cols["current"] == "1" {
					// Live home page: embed the shared fragments. Archived
					// day pages drop these dependencies on their next
					// re-render, capping the medal-update fan-out at the
					// paper's scale.
					ctx.Printf("<h2>Medal standings</h2>")
					if err := ctx.IncludeInto("frag:medals"); err != nil {
						return nil, err
					}
					ctx.Printf("<h2>News</h2>")
					if err := ctx.IncludeInto("frag:news"); err != nil {
						return nil, err
					}
				}
				ctx.Printf("</body></html>")
				return ctx.Bytes(), nil
			})
		}

		// Medal standings page.
		s.addPage("/"+lang+"/medals", func(ctx *fragment.Context) ([]byte, error) {
			ctx.Printf("<html><body><h1>Medal standings (%s)</h1>", lang)
			if err := ctx.IncludeInto("frag:medals"); err != nil {
				return nil, err
			}
			ctx.Printf("</body></html>")
			return ctx.Bytes(), nil
		})

		// Sports index (static taxonomy; no data dependencies).
		s.addPage("/"+lang+"/sports", func(ctx *fragment.Context) ([]byte, error) {
			ctx.Printf("<html><body><h1>Sports</h1><ul>")
			for i := 0; i < s.Spec.Sports; i++ {
				ctx.Printf("<li><a href=/%s/sports/%s>%s</a></li>", lang, sportNames[i], sportNames[i])
			}
			ctx.Printf("</ul></body></html>")
			return ctx.Bytes(), nil
		})

		// Per-sport pages: schedule plus all results so far.
		for i := 0; i < s.Spec.Sports; i++ {
			sport := sportNames[i]
			s.addPage("/"+lang+"/sports/"+sport, func(ctx *fragment.Context) ([]byte, error) {
				sched, err := ctx.Scan("events", sport+":")
				if err != nil {
					return nil, err
				}
				results, err := ctx.Scan("results", sport+":")
				if err != nil {
					return nil, err
				}
				resByKey := make(map[string]db.Row, len(results))
				for _, r := range results {
					resByKey[r.Key] = r
				}
				ctx.Printf("<html><body><h1>%s</h1><table>", sport)
				for _, ev := range sched {
					ctx.Printf("<tr><td><a href=/%s/sports/%s/%s>%s</a></td><td>day %s</td>",
						lang, sport, ev.Key, ev.Cols["name"], ev.Cols["day"])
					if r, ok := resByKey[ev.Key]; ok {
						ctx.Printf("<td>gold: %s (%s)</td>", r.Cols["gold"], r.Cols["goldCountry"])
					} else {
						ctx.Printf("<td>-</td>")
					}
					ctx.Printf("</tr>")
				}
				ctx.Printf("</table></body></html>")
				return ctx.Bytes(), nil
			})
		}

		// Per-event pages.
		for _, ev := range s.Events {
			ev := ev
			s.addPage(fmt.Sprintf("/%s/sports/%s/%s", lang, ev.Sport, ev.Key), func(ctx *fragment.Context) ([]byte, error) {
				sched, _, err := ctx.Get("events", ev.Key)
				if err != nil {
					return nil, err
				}
				res, ok, err := ctx.Get("results", ev.Key)
				if err != nil {
					return nil, err
				}
				ctx.Printf("<html><body><h1>%s</h1><p>Day %s, %d athletes</p>",
					sched.Cols["name"], sched.Cols["day"], len(strings.Split(sched.Cols["participants"], ",")))
				if !ok {
					ctx.Printf("<p>No results yet.</p>")
				} else if res.Cols["gold"] == "" {
					// Intermediate standings: the event is under way.
					ctx.Printf("<p>In progress - leader: %s (%s), score %s</p>",
						res.Cols["leader"], res.Cols["leaderCountry"], res.Cols["score"])
				} else {
					ctx.Printf("<table><tr><td>Gold</td><td><a href=/%s/athletes/%s>%s</a></td><td>%s</td></tr>",
						lang, res.Cols["gold"], res.Cols["gold"], res.Cols["goldCountry"])
					ctx.Printf("<tr><td>Silver</td><td>%s</td><td>%s</td></tr>", res.Cols["silver"], res.Cols["silverCountry"])
					ctx.Printf("<tr><td>Bronze</td><td>%s</td><td>%s</td></tr>", res.Cols["bronze"], res.Cols["bronzeCountry"])
					ctx.Printf("</table><p>Winning score: %s</p>", res.Cols["score"])
				}
				photos, err := ctx.Scan("photos", "event:"+ev.Key+":")
				if err != nil {
					return nil, err
				}
				for _, ph := range photos {
					ctx.Printf("<p class=photo><img alt=%q> %s</p>", ph.Cols["caption"], ph.Cols["caption"])
				}
				ctx.Printf("</body></html>")
				return ctx.Bytes(), nil
			})
		}

		// Country pages: medal tally for the country (the 1998 addition —
		// results collated by country).
		for _, cc := range s.CountryCodes {
			cc := cc
			s.addPage("/"+lang+"/countries/"+cc, func(ctx *fragment.Context) ([]byte, error) {
				row, ok, err := ctx.Get("medals", cc)
				if err != nil {
					return nil, err
				}
				ctx.Printf("<html><body><h1>%s</h1>", cc)
				if ok {
					ctx.Printf("<p>Gold %s, Silver %s, Bronze %s</p>", row.Cols["g"], row.Cols["s"], row.Cols["b"])
				} else {
					ctx.Printf("<p>No medals yet.</p>")
				}
				ctx.Printf("</body></html>")
				return ctx.Bytes(), nil
			})
		}

		// Athlete pages: biography plus results of every event the athlete
		// competes in (collation by athlete, the other 1998 addition).
		for _, id := range s.AthleteIDs {
			id := id
			s.addPage("/"+lang+"/athletes/"+id, func(ctx *fragment.Context) ([]byte, error) {
				bio, ok, err := ctx.Get("athletes", id)
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, fmt.Errorf("site: athlete %s not registered", id)
				}
				ctx.Printf("<html><body><h1>%s (%s)</h1><p>Sport: %s</p><ul>",
					bio.Cols["name"], bio.Cols["country"], bio.Cols["sport"])
				for _, evKey := range strings.Split(bio.Cols["events"], ",") {
					if evKey == "" {
						continue
					}
					res, ok, err := ctx.Get("results", evKey)
					if err != nil {
						return nil, err
					}
					if !ok {
						ctx.Printf("<li>%s: upcoming</li>", evKey)
						continue
					}
					medal := ""
					switch id {
					case res.Cols["gold"]:
						medal = " GOLD"
					case res.Cols["silver"]:
						medal = " SILVER"
					case res.Cols["bronze"]:
						medal = " BRONZE"
					}
					ctx.Printf("<li>%s: competed%s</li>", evKey, medal)
				}
				ctx.Printf("</ul>")
				photos, err := ctx.Scan("photos", "athlete:"+id+":")
				if err != nil {
					return nil, err
				}
				if len(photos) > 0 {
					ctx.Printf("<h2>Photos</h2><ul class=photos>")
					for _, ph := range photos {
						ctx.Printf("<li><img alt=%q> %s</li>", ph.Cols["caption"], ph.Cols["caption"])
					}
					ctx.Printf("</ul>")
				}
				ctx.Printf("</body></html>")
				return ctx.Bytes(), nil
			})
		}

		// News index and story pages.
		s.addPage("/"+lang+"/news", func(ctx *fragment.Context) ([]byte, error) {
			ctx.Printf("<html><body><h1>News</h1>")
			if err := ctx.IncludeInto("frag:news"); err != nil {
				return nil, err
			}
			ctx.Printf("</body></html>")
			return ctx.Bytes(), nil
		})
		for i := 0; i < s.Spec.NewsStories; i++ {
			id := fmt.Sprintf("n%03d", i)
			s.addPage("/"+lang+"/news/"+id, func(ctx *fragment.Context) ([]byte, error) {
				row, ok, err := ctx.Get("news", id)
				if err != nil {
					return nil, err
				}
				ctx.Printf("<html><body>")
				if !ok {
					ctx.Printf("<p>Story not yet published.</p>")
				} else {
					ctx.Printf("<h1>%s</h1><p>%s</p>", row.Cols["headline"], row.Cols["body"])
				}
				ctx.Printf("</body></html>")
				return ctx.Bytes(), nil
			})
		}
	}
}

// defineSyndication adds partner results feeds: JSON documents per sport,
// cached and DUP-maintained like any other object, but consumed by another
// web site rather than a browser.
func (s *Site) defineSyndication() {
	for _, partner := range s.Spec.Syndication {
		for i := 0; i < s.Spec.Sports; i++ {
			sport := sportNames[i]
			partner := partner
			s.addPage("/feed/"+partner+"/"+sport, func(ctx *fragment.Context) ([]byte, error) {
				ctx.SetContentType("application/json")
				rows, err := ctx.Scan("results", sport+":")
				if err != nil {
					return nil, err
				}
				ctx.Printf("{\"sport\":%q,\"results\":[", sport)
				for j, r := range rows {
					if j > 0 {
						ctx.Printf(",")
					}
					ctx.Printf("{\"event\":%q,\"gold\":%q,\"goldCountry\":%q,\"score\":%q}",
						r.Key, r.Cols["gold"], r.Cols["goldCountry"], r.Cols["score"])
				}
				ctx.Printf("]}")
				return ctx.Bytes(), nil
			})
		}
	}
}

// defineExtraNews adds news-only translations (story pages and index) for
// languages the rest of the site is not produced in.
func (s *Site) defineExtraNews() {
	for _, lang := range s.Spec.ExtraNewsLanguages {
		lang := lang
		s.addPage("/"+lang+"/news", func(ctx *fragment.Context) ([]byte, error) {
			ctx.Printf("<html><body><h1>Nouvelles (%s)</h1>", lang)
			if err := ctx.IncludeInto("frag:news"); err != nil {
				return nil, err
			}
			ctx.Printf("</body></html>")
			return ctx.Bytes(), nil
		})
		for i := 0; i < s.Spec.NewsStories; i++ {
			id := fmt.Sprintf("n%03d", i)
			s.addPage("/"+lang+"/news/"+id, func(ctx *fragment.Context) ([]byte, error) {
				row, ok, err := ctx.Get("news", id)
				if err != nil {
					return nil, err
				}
				ctx.Printf("<html><body>")
				if !ok {
					ctx.Printf("<p>Pas encore publie.</p>")
				} else {
					ctx.Printf("<h1>[%s] %s</h1><p>%s</p>", lang, row.Cols["headline"], row.Cols["body"])
				}
				ctx.Printf("</body></html>")
				return ctx.Bytes(), nil
			})
		}
	}
}

func (s *Site) addPage(path string, fn fragment.Func) {
	s.Engine.Define(path, fn)
	s.pages = append(s.pages, path)
}

// AthleteCountry returns the country code an athlete competes for ("" if
// unknown).
func (s *Site) AthleteCountry(id string) string { return s.athleteCountry[id] }

// Pages returns every dynamic page path, sorted.
func (s *Site) Pages() []string {
	out := append([]string(nil), s.pages...)
	sort.Strings(out)
	return out
}

// Statics returns the static sections of the site (Welcome, Venues, Nagano,
// Fun — content that never changes during the games).
func (s *Site) Statics() map[string][]byte { return s.Spec.Statics() }

// Statics returns the static sections of a site built from sp, which a
// serving node holds without building the site.
func (sp Spec) Statics() map[string][]byte {
	out := make(map[string][]byte)
	for _, lang := range sp.Languages {
		out["/"+lang+"/welcome"] = []byte("<html><body><h1>Welcome to Nagano 1998 (" + lang + ")</h1></body></html>")
		out["/"+lang+"/venues"] = []byte("<html><body><h1>Venues</h1></body></html>")
		out["/"+lang+"/nagano"] = []byte("<html><body><h1>About Nagano</h1></body></html>")
		out["/"+lang+"/fun"] = []byte("<html><body><h1>Fun and games</h1></body></html>")
	}
	return out
}

// PrerenderAll generates every dynamic page at the given version, invoking
// apply for each rendered object (typically cache.Group.BroadcastPut). It
// registers all dependencies as a side effect — this is the site's initial
// cache priming, after which DUP keeps everything fresh.
func (s *Site) PrerenderAll(version int64, apply func(*cache.Object)) error {
	for _, p := range s.pages {
		obj, err := s.Engine.Generate(cache.Key(p), version)
		if err != nil {
			return fmt.Errorf("site: prerender %s: %w", p, err)
		}
		if apply != nil {
			apply(obj)
		}
	}
	return nil
}

// CurrentDay returns the day most recently set current.
func (s *Site) CurrentDay() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.currentDay
}

// SetCurrentDay flips the "current" flag from the previous day's today row
// to day d, committing one transaction (returned so callers can propagate
// it). Archived home pages drop their fragment dependencies on their next
// re-render. Setting the already-current day returns a zero Transaction.
func (s *Site) SetCurrentDay(d int) (db.Transaction, error) {
	if d < 1 || d > s.Spec.Days {
		return db.Transaction{}, fmt.Errorf("site: day %d out of range [1,%d]", d, s.Spec.Days)
	}
	s.mu.Lock()
	prev := s.currentDay
	s.currentDay = d
	s.mu.Unlock()
	if prev == d {
		return db.Transaction{}, nil
	}
	prevRow, _, err := s.DB.Get("today", dayKey(prev))
	if err != nil {
		return db.Transaction{}, err
	}
	curRow, _, err := s.DB.Get("today", dayKey(d))
	if err != nil {
		return db.Transaction{}, err
	}
	tx := s.DB.NewTx()
	tx.Put("today", dayKey(prev), map[string]string{"recent": prevRow.Cols["recent"], "current": "0"})
	tx.Put("today", dayKey(d), map[string]string{"recent": curRow.Cols["recent"], "current": "1"})
	return s.DB.Commit(tx)
}

// RecordResult commits the result of an event: the results row, medal-table
// increments for the three medalists' countries, and the current day's
// recent-results ticker. gold, silver, bronze are participant athlete IDs.
// The site assumes a single result writer (the venue feed), matching the
// paper's master-database architecture.
func (s *Site) RecordResult(ev *Event, gold, silver, bronze, score string) (db.Transaction, error) {
	day := s.CurrentDay()
	tx := s.DB.NewTx()
	tx.Put("results", ev.Key, map[string]string{
		"gold": gold, "goldCountry": s.athleteCountry[gold],
		"silver": silver, "silverCountry": s.athleteCountry[silver],
		"bronze": bronze, "bronzeCountry": s.athleteCountry[bronze],
		"score": score, "day": fmt.Sprint(day),
	})
	// Medal tallies. A single event may award the same country twice (gold
	// and bronze, say), and later Puts of the same key within one tx
	// override earlier ones — so fold the increments per country first.
	medalCols := map[string]map[string]string{}
	load := func(cc string) map[string]string {
		if cols, ok := medalCols[cc]; ok {
			return cols
		}
		cols := map[string]string{"g": "0", "s": "0", "b": "0"}
		if row, ok, _ := s.DB.Get("medals", cc); ok {
			cols["g"], cols["s"], cols["b"] = row.Cols["g"], row.Cols["s"], row.Cols["b"]
		}
		medalCols[cc] = cols
		return cols
	}
	inc := func(cc, col string) {
		cols := load(cc)
		var n int
		fmt.Sscanf(cols[col], "%d", &n)
		cols[col] = fmt.Sprint(n + 1)
	}
	inc(s.athleteCountry[gold], "g")
	inc(s.athleteCountry[silver], "s")
	inc(s.athleteCountry[bronze], "b")
	for cc, cols := range medalCols {
		tx.Put("medals", cc, cols)
	}

	// Ticker on the current day's home page: keep the last 8 entries.
	todayRow, _, err := s.DB.Get("today", dayKey(day))
	if err != nil {
		return db.Transaction{}, err
	}
	entry := fmt.Sprintf("%s gold %s (%s)", ev.Key, gold, s.athleteCountry[gold])
	recent := entry
	if prev := todayRow.Cols["recent"]; prev != "" {
		items := strings.Split(prev, ";")
		if len(items) >= 8 {
			items = items[:7]
		}
		recent = entry + ";" + strings.Join(items, ";")
	}
	tx.Put("today", dayKey(day), map[string]string{"recent": recent, "current": todayRow.Cols["current"]})
	return s.DB.Commit(tx)
}

// RecordPartial commits an intermediate scoring update for an event in
// progress (a heat result, a run standing): the paper's system received a
// continuous feed from the venue scoring equipment, not only final results.
// Partials update the results row's leader columns; they never touch medal
// tallies. If the event already has a final result, RecordPartial is a
// no-op returning a zero transaction.
func (s *Site) RecordPartial(ev *Event, leader, score string) (db.Transaction, error) {
	row, ok, err := s.DB.Get("results", ev.Key)
	if err != nil {
		return db.Transaction{}, err
	}
	if ok && row.Cols["gold"] != "" {
		return db.Transaction{}, nil
	}
	tx := s.DB.NewTx().Put("results", ev.Key, map[string]string{
		"leader": leader, "leaderCountry": s.athleteCountry[leader],
		"score": score, "day": fmt.Sprint(s.CurrentDay()),
	})
	return s.DB.Commit(tx)
}

// PublishNews commits a news story (creating its row makes the story page,
// news index, and home-page headlines refresh via the news table index).
func (s *Site) PublishNews(storyNum int, headline, body string) (db.Transaction, error) {
	id := fmt.Sprintf("n%03d", storyNum)
	tx := s.DB.NewTx().Put("news", id, map[string]string{
		"headline": headline,
		"body":     body,
		"day":      fmt.Sprint(s.CurrentDay()),
	})
	return s.DB.Commit(tx)
}

// PublishPhoto commits a classified photograph. Photographs were
// "classified by hand and dynamically inserted into the appropriate News,
// Results, Athlete, Country, Venue, and Today pages" (§3.1); here a photo
// is attached to a subject ("athlete:a0001" or "event:alpine:e0") and the
// pages that scan that subject's photo prefix refresh via the membership
// index.
func (s *Site) PublishPhoto(photoNum int, subject, caption string) (db.Transaction, error) {
	key := fmt.Sprintf("%s:p%03d", subject, photoNum)
	tx := s.DB.NewTx().Put("photos", key, map[string]string{
		"caption": caption,
		"day":     fmt.Sprint(s.CurrentDay()),
	})
	return s.DB.Commit(tx)
}

// Indexer maps database changes to ODG vertices, adding membership-index
// vertices for the scan prefixes the site's renderers use. It is the
// trigger monitor's Indexer for this site.
func (s *Site) Indexer(c db.Change) []odg.NodeID {
	ids := []odg.NodeID{odg.NodeID(c.ChangeID())}
	if c.Op == db.OpPut && !c.Created {
		return ids
	}
	// Insert or delete: membership changed; bump the indices for the scan
	// prefixes renderers use on this table.
	switch c.Table {
	case "results":
		// Sport pages scan "<sport>:".
		if i := strings.IndexByte(c.Key, ':'); i > 0 {
			ids = append(ids, odg.NodeID(fragment.IndexID("results", c.Key[:i+1])))
		}
	case "news", "medals":
		// frag:news / frag:medals scan the whole table.
		ids = append(ids, odg.NodeID(fragment.IndexID(c.Table, "")))
	case "photos":
		// Athlete/event pages scan "<subject>:", i.e. the key up to its
		// final segment.
		if i := strings.LastIndexByte(c.Key, ':'); i > 0 {
			ids = append(ids, odg.NodeID(fragment.IndexID("photos", c.Key[:i+1])))
		}
	}
	return ids
}

// ConservativeMapper reproduces the 1996 strategy for the baseline
// experiments: a change is mapped to whole sections of the site to drop.
// It deliberately over-invalidates, as the paper describes.
func (s *Site) ConservativeMapper(id odg.NodeID) []string {
	sid := string(id)
	var prefixes []string
	addForAllLangs := func(suffix string) {
		for _, lang := range s.Spec.Languages {
			prefixes = append(prefixes, "/"+lang+suffix)
		}
	}
	switch {
	case strings.HasPrefix(sid, "db:results:"):
		rest := strings.TrimPrefix(sid, "db:results:")
		sport := rest
		if i := strings.IndexByte(rest, ':'); i > 0 {
			sport = rest[:i]
		}
		sport = strings.TrimSuffix(sport, ":")
		if strings.HasPrefix(sport, "index") {
			// Index vertex: drop all sports pages.
			addForAllLangs("/sports")
		} else {
			addForAllLangs("/sports/" + sport)
		}
		// Results touch athletes and the home pages too; the 1996 site
		// could not tell which, so it dropped them all.
		addForAllLangs("/athletes")
		addForAllLangs("/home")
	case strings.HasPrefix(sid, "db:medals:"):
		addForAllLangs("/medals")
		addForAllLangs("/countries")
		addForAllLangs("/home")
	case strings.HasPrefix(sid, "db:news:"):
		addForAllLangs("/news")
		addForAllLangs("/home")
	case strings.HasPrefix(sid, "db:today:"):
		addForAllLangs("/home")
	}
	return prefixes
}
