// Command analyze reads a web server access log in Common Log Format and
// prints the navigation report the 1998 redesign was based on (section 3.1:
// "The Web server logs collected during the 1996 games provided significant
// insight into the design of the 1998 Web site").
//
//	olympicsd -accesslog access.log &
//	loadgen -url http://localhost:8098 -duration 30s
//	analyze -log access.log -top 15
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"dupserve/internal/weblog"
)

func main() {
	path := flag.String("log", "-", "access log file (- for stdin)")
	top := flag.Int("top", 10, "number of top pages to print")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *path != "-" {
		f, err := os.Open(*path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := weblog.Analyze(r, *top)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("entries:          %d (%d clients, %d errors, %.1f MB)\n",
		rep.Entries, rep.Clients, rep.Errors, float64(rep.Bytes)/1e6)
	fmt.Printf("visits:           %d\n", rep.Visits)
	fmt.Printf("hits per visit:   %.2f\n", rep.HitsPerVisit)
	fmt.Printf("entry-satisfied:  %.1f%% of visits found what they wanted on one page\n", 100*rep.EntrySatisfied)

	fmt.Println("\nhits by section:")
	type kv struct {
		k string
		v int
	}
	var sections []kv
	for k, v := range rep.BySection {
		sections = append(sections, kv{k, v})
	}
	sort.Slice(sections, func(i, j int) bool {
		if sections[i].v != sections[j].v {
			return sections[i].v > sections[j].v
		}
		return sections[i].k < sections[j].k
	})
	for _, s := range sections {
		fmt.Printf("  %-24s %8d\n", s.k, s.v)
	}

	fmt.Println("\ntop pages:")
	for _, p := range rep.TopPages {
		fmt.Printf("  %-44s %8d\n", p.Path, p.Hits)
	}
}
