package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/server"
)

// flagOf names the kpart flag that binds each kpartd request key (the
// JSON field and the query parameter share the key).
var flagOf = map[string]string{
	"threshold":      "t",
	"solutions":      "solutions",
	"seed":           "seed",
	"max_stale":      "max-stale",
	"multilevel":     "multilevel",
	"refine_workers": "refine-workers",
	"board":          "board",
}

// TestSurfaceParity is the option-surface gate: every search-shaping
// setting must mean the same search through every surface. Each row is
// given once, as request key → value text, and sent three ways —
// kpart's flags (parsed by kpart's own flag set) with -json, a kpartd
// JSON body, and a raw .clb body with a query string. The three decoded
// results must be equal. A setting the row leaves out takes each
// surface's own default, so the "threshold unset" row pins kpart's
// -t 1 default to the engine's nil-threshold default.
func TestSurfaceParity(t *testing.T) {
	// Large enough for multi-device carves and for the V-cycle's
	// default 512-cell gate; on this circuit T = 0 and T = 1 lead to
	// different solutions.
	path := writeCircuit(t, bench.Params{Cells: 600, PrimaryIn: 14, PrimaryOut: 8, Seed: 4, Clustering: 0.5})
	circuit, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()

	// Solutions and seed are pinned unless a row sets them: the
	// surfaces' defaults differ there on purpose (kpart seeds with 1,
	// kpartd with 0), and 50 solutions would only slow the test down.
	base := map[string]string{"solutions": "3", "seed": "1"}
	results := map[string]server.JobResult{}
	for _, row := range []struct {
		name string
		set  map[string]string
	}{
		{"threshold-unset", nil},
		{"threshold-0", map[string]string{"threshold": "0"}},
		{"threshold-off", map[string]string{"threshold": "-1"}},
		{"threshold-2", map[string]string{"threshold": "2"}},
		{"solutions", map[string]string{"solutions": "5"}},
		{"seed", map[string]string{"seed": "7"}},
		{"max-stale", map[string]string{"max_stale": "1"}},
		{"multilevel", map[string]string{"multilevel": "true"}},
		{"refine-workers", map[string]string{"refine_workers": "2"}},
		{"board", map[string]string{"board": "crossbar:4"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			set := map[string]string{}
			for k, v := range base {
				set[k] = v
			}
			for k, v := range row.set {
				set[k] = v
			}
			keys := make([]string, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Strings(keys)

			args := []string{"-json"}
			body := map[string]json.RawMessage{"circuit": json.RawMessage(strconv.Quote(string(circuit)))}
			query := url.Values{}
			for _, k := range keys {
				v := set[k]
				args = append(args, "-"+flagOf[k]+"="+v)
				if json.Valid([]byte(v)) {
					body[k] = json.RawMessage(v)
				} else {
					body[k] = json.RawMessage(strconv.Quote(v))
				}
				query.Set(k, v)
			}

			cli := kpartResult(t, path, args)
			jsonBody, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			viaJSON := postResult(t, ts.URL+"/v1/partition", "application/json", string(jsonBody))
			viaQuery := postResult(t, ts.URL+"/v1/partition?"+query.Encode(), "text/plain", string(circuit))
			if !reflect.DeepEqual(cli, viaJSON) {
				t.Fatalf("kpart %v and the JSON job differ:\n kpart %+v\n json  %+v", args, cli, viaJSON)
			}
			if !reflect.DeepEqual(viaJSON, viaQuery) {
				t.Fatalf("the JSON job and ?%s differ:\n json  %+v\n query %+v", query.Encode(), viaJSON, viaQuery)
			}
			results[row.name] = cli
		})
	}
	// The rows are not vacuous: an explicit T = 0 is its own search,
	// not the T = 1 default.
	if reflect.DeepEqual(results["threshold-0"], results["threshold-unset"]) {
		t.Fatalf("threshold 0 ran the default T = 1 search: %+v", results["threshold-0"])
	}
}

// kpartResult runs kpart on path with args parsed by kpart's flag set
// and decodes its -json output.
func kpartResult(t *testing.T, path string, args []string) server.JobResult {
	t.Helper()
	var cfg runConfig
	fs := flag.NewFlagSet("kpart", flag.ContinueOnError)
	cfg.bindFlags(fs)
	if err := fs.Parse(append(args, path)); err != nil {
		t.Fatal(err)
	}
	cfg.path = fs.Arg(0)
	out, err := capture(t, func() error { return run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	// The JSON document follows the status lines.
	i := strings.Index(out, "\n{")
	if i < 0 {
		t.Fatalf("no JSON in kpart output:\n%s", out)
	}
	var res server.JobResult
	if err := json.Unmarshal([]byte(out[i+1:]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// postResult submits a sync job and decodes its result.
func postResult(t *testing.T, url, contentType, body string) server.JobResult {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.Result == nil {
		t.Fatalf("POST %s: %d %+v", url, resp.StatusCode, st)
	}
	return *st.Result
}
