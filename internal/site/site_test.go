package site

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/odg"
)

// buildSite wires a complete DUP stack around a toy site: graph, cache,
// engine, site. Returns the site and the serving cache.
func buildSite(t *testing.T, spec Spec) (*Site, *core.Engine, *cache.Cache) {
	t.Helper()
	d := db.New("master")
	g := odg.New()
	c := cache.New("serving")
	// Two-phase construction: the engine needs the generator, which is the
	// site's fragment engine, which needs the engine as registrar. Break
	// the cycle with a late-bound generator.
	var st *Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	e := core.NewEngine(g, c, core.WithGenerator(gen))
	var err error
	st, err = Build(spec, d, e)
	if err != nil {
		t.Fatal(err)
	}
	return st, e, c
}

func TestBuildPageUniverse(t *testing.T) {
	st, _, _ := buildSite(t, DefaultSpec())
	spec := st.Spec
	pages := st.Pages()
	// homes + medals + sports idx + sports + events + countries +
	// athletes + news idx + stories, per language.
	perLang := spec.Days + 1 + 1 + spec.Sports + spec.Sports*spec.EventsPerSport +
		spec.Countries + spec.Athletes + 1 + spec.NewsStories
	if got, want := len(pages), perLang*len(spec.Languages); got != want {
		t.Fatalf("pages = %d, want %d", got, want)
	}
	// Spot-check path shapes.
	for _, p := range []string{"/en/home/day01", "/en/medals", "/en/sports/alpine",
		"/en/sports/alpine/alpine:e0", "/en/athletes/a0000", "/en/news/n000"} {
		if !slices.Contains(pages, p) {
			t.Fatalf("missing page %s", p)
		}
	}
}

func TestPaperSpecScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build")
	}
	st, _, _ := buildSite(t, PaperSpec())
	n := len(st.Pages())
	// The paper reports ~21,000 dynamically generated pages.
	if n < 10000 {
		t.Fatalf("paper-scale site has %d pages, want >= 10000", n)
	}
}

func TestPrerenderAll(t *testing.T) {
	st, _, c := buildSite(t, DefaultSpec())
	n := 0
	if err := st.PrerenderAll(1, func(o *cache.Object) {
		c.Put(o)
		n++
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(st.Pages()) {
		t.Fatalf("prerendered %d, want %d", n, len(st.Pages()))
	}
	if c.Len() != n {
		t.Fatalf("cache holds %d", c.Len())
	}
}

func TestEventPageBeforeAndAfterResult(t *testing.T) {
	st, e, c := buildSite(t, DefaultSpec())
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	ev := st.Events[0]
	page := cache.Key("/en/sports/" + ev.Sport + "/" + ev.Key)
	obj, _ := c.Peek(page)
	if !strings.Contains(string(obj.Value), "No results yet") {
		t.Fatalf("pre-result page = %q", obj.Value)
	}
	gold, silver, bronze := ev.Participants[0], ev.Participants[1], ev.Participants[2]
	tx, err := st.RecordResult(ev, gold, silver, bronze, "251.6")
	if err != nil {
		t.Fatal(err)
	}
	// Propagate manually (no trigger monitor in this test).
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	res := e.OnChange(tx.LSN, changed...)
	if res.Updated == 0 {
		t.Fatalf("propagation result = %+v", res)
	}
	obj, _ = c.Peek(page)
	if !strings.Contains(string(obj.Value), gold) {
		t.Fatalf("post-result page missing gold medalist: %q", obj.Value)
	}
}

func TestResultFanOutMatchesComposition(t *testing.T) {
	st, e, c := buildSite(t, DefaultSpec())
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	ev := st.Events[0]
	tx, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "10")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	res := e.OnChange(tx.LSN, changed...)

	langs := len(st.Spec.Languages)
	// Expected affected pages per language: event page, sport page,
	// current home, medals page, <=3 country pages, participant athlete
	// pages; plus frag:medals. Athletes competing in the event:
	participants := len(ev.Participants)
	min := langs*(1+1+1+1+1+participants) + 1 // at least 1 country page
	max := langs*(1+1+1+1+3+participants) + 2 // frag:medals + frag:news(?)
	if res.Updated < min || res.Updated > max+2 {
		t.Fatalf("fan-out = %d, want in [%d, %d]", res.Updated, min, max+2)
	}
}

func TestMedalStandingsUpdateOnHomeAndMedalsPages(t *testing.T) {
	st, e, c := buildSite(t, DefaultSpec())
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	ev := st.Events[0]
	gold := ev.Participants[0]
	goldCountry := st.athleteCountry[gold]
	tx, err := st.RecordResult(ev, gold, ev.Participants[1], ev.Participants[2], "10")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	e.OnChange(tx.LSN, changed...)

	medals, _ := c.Peek("/en/medals")
	if !strings.Contains(string(medals.Value), goldCountry) {
		t.Fatalf("medals page missing %s: %q", goldCountry, medals.Value)
	}
	home, _ := c.Peek(cache.Key(fmt.Sprintf("/en/home/day%02d", st.CurrentDay())))
	if !strings.Contains(string(home.Value), ev.Key) {
		t.Fatalf("home page ticker missing result: %q", home.Value)
	}
	country, _ := c.Peek(cache.Key("/en/countries/" + goldCountry))
	if !strings.Contains(string(country.Value), "Gold 1") {
		t.Fatalf("country page = %q", country.Value)
	}
}

func TestArchivedHomeDropsLiveFragments(t *testing.T) {
	st, e, c := buildSite(t, DefaultSpec())
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	// Advance to day 2: day 1's home page re-renders as an archive.
	if _, err := st.SetCurrentDay(2); err != nil {
		t.Fatal(err)
	}
	propagateAll(t, st, e)

	// A result on day 2 must not touch day 1's archived home page.
	day1 := cache.Key("/en/home/day01")
	before, _ := c.Peek(day1)
	ev := st.Events[0]
	tx, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "1")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	e.OnChange(tx.LSN, changed...)
	after, _ := c.Peek(day1)
	if string(before.Value) != string(after.Value) {
		t.Fatal("archived home page was regenerated by a later-day result")
	}
	// But day 2's home page reflects the result.
	day2, _ := c.Peek("/en/home/day02")
	if !strings.Contains(string(day2.Value), ev.Key) {
		t.Fatalf("current home missing result: %q", day2.Value)
	}
}

// propagateAll drains every un-propagated transaction through the engine,
// as a trigger monitor would.
func propagateAll(t *testing.T, st *Site, e *core.Engine) {
	t.Helper()
	for _, tx := range st.DB.LogSince(0) {
		var changed []odg.NodeID
		for _, ch := range tx.Changes {
			changed = append(changed, st.Indexer(ch)...)
		}
		e.OnChange(tx.LSN, changed...)
	}
}

func TestPublishNewsPropagates(t *testing.T) {
	st, e, c := buildSite(t, DefaultSpec())
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	tx, err := st.PublishNews(0, "Lipinski takes gold", "Figure skating story.")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	e.OnChange(tx.LSN, changed...)

	story, _ := c.Peek("/en/news/n000")
	if !strings.Contains(string(story.Value), "Lipinski") {
		t.Fatalf("story page = %q", story.Value)
	}
	idx, _ := c.Peek("/en/news")
	if !strings.Contains(string(idx.Value), "Lipinski") {
		t.Fatalf("news index = %q", idx.Value)
	}
	home, _ := c.Peek(cache.Key(fmt.Sprintf("/en/home/day%02d", st.CurrentDay())))
	if !strings.Contains(string(home.Value), "Lipinski") {
		t.Fatalf("home page headlines = %q", home.Value)
	}
}

func TestIndexerEmitsIndexOnlyForInserts(t *testing.T) {
	st, _, _ := buildSite(t, DefaultSpec())
	insert := db.Change{Table: "results", Key: "alpine:e0", Op: db.OpPut, Created: true}
	ids := st.Indexer(insert)
	if len(ids) != 2 || ids[1] != odg.NodeID("db:results:index:alpine:") {
		t.Fatalf("insert ids = %v", ids)
	}
	update := db.Change{Table: "results", Key: "alpine:e0", Op: db.OpPut, Created: false}
	ids = st.Indexer(update)
	if len(ids) != 1 {
		t.Fatalf("update ids = %v", ids)
	}
	del := db.Change{Table: "news", Key: "n001", Op: db.OpDelete}
	ids = st.Indexer(del)
	if len(ids) != 2 || ids[1] != odg.NodeID("db:news:index:") {
		t.Fatalf("delete ids = %v", ids)
	}
}

func TestConservativeMapperOverInvalidates(t *testing.T) {
	st, _, _ := buildSite(t, DefaultSpec())
	prefixes := st.ConservativeMapper("db:results:alpine:e0")
	joined := strings.Join(prefixes, " ")
	for _, want := range []string{"/en/sports/alpine", "/en/athletes", "/en/home"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("mapper missing %s: %v", want, prefixes)
		}
	}
	if got := st.ConservativeMapper("db:medals:AUT"); len(got) == 0 {
		t.Fatal("medals mapping empty")
	}
	if got := st.ConservativeMapper("db:unknown:x"); len(got) != 0 {
		t.Fatalf("unknown table mapped to %v", got)
	}
}

func TestSetCurrentDayValidation(t *testing.T) {
	st, _, _ := buildSite(t, DefaultSpec())
	if _, err := st.SetCurrentDay(0); err == nil {
		t.Fatal("day 0 accepted")
	}
	if _, err := st.SetCurrentDay(99); err == nil {
		t.Fatal("day 99 accepted")
	}
	if _, err := st.SetCurrentDay(1); err != nil {
		t.Fatalf("no-op day change errored: %v", err)
	}
}

func TestRecordResultSameCountryTwoMedals(t *testing.T) {
	st, _, _ := buildSite(t, Spec{
		Sports: 1, EventsPerSport: 1, Athletes: 16, Countries: 2,
		NewsStories: 1, Days: 1, EventsPerAthlete: 1, Languages: []string{"en"},
	})
	ev := st.Events[0]
	// Participants alternate countries: a0000 and a0002 share a country.
	gold, bronze := ev.Participants[0], ev.Participants[2]
	silver := ev.Participants[1]
	if st.athleteCountry[gold] != st.athleteCountry[bronze] {
		t.Fatal("test setup: expected shared country")
	}
	if _, err := st.RecordResult(ev, gold, silver, bronze, "1"); err != nil {
		t.Fatal(err)
	}
	row, ok, err := st.DB.Get("medals", st.athleteCountry[gold])
	if err != nil || !ok {
		t.Fatal("medals row missing")
	}
	if row.Cols["g"] != "1" || row.Cols["b"] != "1" {
		t.Fatalf("medal counts = %v, want g=1 b=1", row.Cols)
	}
}

func TestTickerCapsAtEight(t *testing.T) {
	st, _, _ := buildSite(t, DefaultSpec())
	for i, ev := range st.Events {
		if i >= 10 {
			break
		}
		if _, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "1"); err != nil {
			t.Fatal(err)
		}
	}
	row, _, err := st.DB.Get("today", dayKey(st.CurrentDay()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(row.Cols["recent"], ";")); n > 8 {
		t.Fatalf("ticker has %d entries, want <= 8", n)
	}
}

func TestParticipantsPerEventScale(t *testing.T) {
	st, _, _ := buildSite(t, PaperSpec())
	total := 0
	for _, ev := range st.Events {
		total += len(ev.Participants)
	}
	avg := float64(total) / float64(len(st.Events))
	// Paper-scale target: ~50 participants per event so one result touches
	// ~100+ pages across two languages.
	if avg < 30 || avg > 80 {
		t.Fatalf("avg participants per event = %.1f, want 30-80", avg)
	}
}

func TestStatics(t *testing.T) {
	st, _, _ := buildSite(t, DefaultSpec())
	statics := st.Statics()
	if len(statics) != 4*len(st.Spec.Languages) {
		t.Fatalf("statics = %d", len(statics))
	}
	if _, ok := statics["/en/welcome"]; !ok {
		t.Fatal("welcome page missing")
	}
}

func TestSyndicationFeed(t *testing.T) {
	spec := DefaultSpec()
	spec.Syndication = []string{"cbs"}
	st, e, c := buildSite(t, spec)
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	feedKey := cache.Key("/feed/cbs/alpine")
	obj, ok := c.Peek(feedKey)
	if !ok {
		t.Fatal("feed not prerendered")
	}
	if obj.ContentType != "application/json" {
		t.Fatalf("content type = %q", obj.ContentType)
	}
	var doc struct {
		Sport   string `json:"sport"`
		Results []struct {
			Event string `json:"event"`
			Gold  string `json:"gold"`
		} `json:"results"`
	}
	if err := json.Unmarshal(obj.Value, &doc); err != nil {
		t.Fatalf("invalid JSON %q: %v", obj.Value, err)
	}
	if doc.Sport != "alpine" || len(doc.Results) != 0 {
		t.Fatalf("doc = %+v", doc)
	}

	// A result propagates into the feed like any other page.
	ev := st.Events[0] // alpine:e0
	tx, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "9.5")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	e.OnChange(tx.LSN, changed...)
	obj, _ = c.Peek(feedKey)
	if err := json.Unmarshal(obj.Value, &doc); err != nil {
		t.Fatalf("invalid JSON after update %q: %v", obj.Value, err)
	}
	if len(doc.Results) != 1 || doc.Results[0].Gold != ev.Participants[0] {
		t.Fatalf("feed after result = %+v", doc)
	}
}

func TestExtraNewsLanguages(t *testing.T) {
	spec := DefaultSpec()
	spec.ExtraNewsLanguages = []string{"fr"}
	st, e, c := buildSite(t, spec)
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	pages := st.Pages()
	if !slices.Contains(pages, "/fr/news/n000") || !slices.Contains(pages, "/fr/news") {
		t.Fatal("french news pages missing")
	}
	// English sports pages must NOT exist in French.
	if slices.Contains(pages, "/fr/sports") {
		t.Fatal("french full site should not exist")
	}
	tx, err := st.PublishNews(0, "Or pour Lipinski", "corps")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	e.OnChange(tx.LSN, changed...)
	obj, _ := c.Peek("/fr/news/n000")
	if !strings.Contains(string(obj.Value), "Lipinski") {
		t.Fatalf("french story = %q", obj.Value)
	}
}

func TestPublishPhotoPropagatesToSubjectPages(t *testing.T) {
	st, e, c := buildSite(t, DefaultSpec())
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	athlete := st.AthleteIDs[0]
	before, _ := c.Peek(cache.Key("/en/athletes/" + athlete))

	tx, err := st.PublishPhoto(0, "athlete:"+athlete, "Victory leap")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	res := e.OnChange(tx.LSN, changed...)
	if res.Updated == 0 {
		t.Fatalf("photo propagation: %+v", res)
	}
	after, _ := c.Peek(cache.Key("/en/athletes/" + athlete))
	if string(before.Value) == string(after.Value) {
		t.Fatal("athlete page unchanged by photo")
	}
	if !strings.Contains(string(after.Value), "Victory leap") {
		t.Fatalf("photo missing from athlete page: %q", after.Value)
	}
	// Unrelated athlete untouched.
	other := st.AthleteIDs[1]
	obj, _ := c.Peek(cache.Key("/en/athletes/" + other))
	if strings.Contains(string(obj.Value), "Victory leap") {
		t.Fatal("photo leaked to unrelated athlete")
	}
}

func TestPublishEventPhoto(t *testing.T) {
	st, e, c := buildSite(t, DefaultSpec())
	if err := st.PrerenderAll(1, func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	ev := st.Events[0]
	tx, err := st.PublishPhoto(1, "event:"+ev.Key, "Photo finish")
	if err != nil {
		t.Fatal(err)
	}
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	e.OnChange(tx.LSN, changed...)
	page, _ := c.Peek(cache.Key("/en/sports/" + ev.Sport + "/" + ev.Key))
	if !strings.Contains(string(page.Value), "Photo finish") {
		t.Fatalf("event page missing photo: %q", page.Value)
	}
}
