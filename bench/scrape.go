package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one node's /metrics page: the "# messages" table keyed by
// message kind (summed over sending sites) and every "name value" line,
// which covers counters, histogram fields and the totals.
type scrape struct {
	messages map[string]float64
	values   map[string]float64
}

// parseMetrics reads the text avnode's admin server writes. The page is
// a table (title, header, dashed rule, rows, blank line) followed by
// "name value" lines and "# ..." section comments.
func parseMetrics(r io.Reader) (scrape, error) {
	s := scrape{messages: map[string]float64{}, values: map[string]float64{}}
	sc := bufio.NewScanner(r)
	inTable := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "# messages":
			inTable = true
		case line == "":
			inTable = false
		case strings.HasPrefix(line, "#"):
		case inTable:
			f := strings.Fields(line)
			if len(f) != 3 || f[0] == "site" || strings.HasPrefix(f[0], "-") {
				continue
			}
			n, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return s, fmt.Errorf("metrics: message row %q: %w", line, err)
			}
			s.messages[f[1]] += n
		default:
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			// trace_enabled is the page's one non-numeric value.
			if n, err := strconv.ParseFloat(f[1], 64); err == nil {
				s.values[f[0]] = n
			}
		}
	}
	return s, sc.Err()
}

func scrapeNode(client *http.Client, admin string) (scrape, error) {
	resp, err := client.Get("http://" + admin + "/metrics")
	if err != nil {
		return scrape{}, fmt.Errorf("scrape %s: %w", admin, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("scrape %s: status %s", admin, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// scrapeSet is one scrape per node, taken back to back.
type scrapeSet []scrape

func scrapeAll(client *http.Client, admins []string) (scrapeSet, error) {
	set := make(scrapeSet, len(admins))
	for i, a := range admins {
		s, err := scrapeNode(client, a)
		if err != nil {
			return nil, err
		}
		set[i] = s
	}
	return set, nil
}

// sum adds name over all nodes.
func (s scrapeSet) sum(name string) float64 {
	var t float64
	for _, n := range s {
		t += n.values[name]
	}
	return t
}

// msgs adds the counts of the given message kinds over all nodes.
func (s scrapeSet) msgs(kinds ...string) float64 {
	var t float64
	for _, n := range s {
		for _, k := range kinds {
			t += n.messages[k]
		}
	}
	return t
}

// weighted averages a histogram field such as update_latency_p50_ns over
// the nodes that observed anything, weighted by their sample counts.
// Percentiles do not average exactly; with the one or two loaded nodes of
// these workloads the error is far below run-to-run spread.
func (s scrapeSet) weighted(hist, field string) float64 {
	var sum, n float64
	for _, node := range s {
		c := node.values[hist+"_count"]
		sum += c * node.values[hist+"_"+field]
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
