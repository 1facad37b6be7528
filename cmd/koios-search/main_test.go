package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/sets"
)

// rank matches one printed result line: its rank and set name.
var rank = regexp.MustCompile(`(?m)^  #(\d+) +(\S+) `)

func TestLocalSearchPrintsKRanks(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-dataset", "twitter", "-scale", "0.05", "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := rank.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 3 {
		t.Fatalf("%d result lines, want 3:\n%s", len(lines), &out)
	}
	for i, l := range lines {
		if l[1] != string(rune('1'+i)) {
			t.Fatalf("line %d has rank #%s:\n%s", i, l[1], &out)
		}
	}
}

// TestRemoteSearchMatchesClient: -server mode prints the sets a
// server.Client search for the same tokens returns, in its order.
func TestRemoteSearchMatchesClient(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.05)
	reg := collection.NewRegistry(ds.Repo.Sets(), collection.Config{
		Build: func(dict *sets.Dictionary) index.NeighborSource {
			return index.NewDynamicExact(dict, ds.Model.Vector)
		},
		Opts: core.Options{K: 10, Alpha: 0.8, ExactScores: true},
	})
	defer reg.Close()
	ts := httptest.NewServer(server.NewRegistry(reg, server.Config{}))
	defer ts.Close()

	query := ds.Repo.Sets()[0].Elements[:3]
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-server", ts.URL, "-tokens", strings.Join(query, ", "), "-k", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	resp, err := server.NewClient(ts.URL, nil).Search(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	lines := rank.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != len(resp.Results) || len(lines) == 0 {
		t.Fatalf("printed %d results, the client got %d:\n%s", len(lines), len(resp.Results), &out)
	}
	for i, r := range resp.Results {
		if lines[i][2] != r.SetName {
			t.Fatalf("rank %d: printed %s, the client got %s:\n%s", i+1, lines[i][2], r.SetName, &out)
		}
	}
}

func TestRemoteSearchNeedsTokens(t *testing.T) {
	err := run(context.Background(), []string{"-server", "http://127.0.0.1:7411"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "-server mode needs -tokens") {
		t.Fatalf("run = %v, want the missing -tokens error", err)
	}
}
