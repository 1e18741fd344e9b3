package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// statsSchemaV6 is the golden top-level field set of the /stats document
// at stats_schema_version 6 (v2 added "cluster"; v3 added
// "trace_cache_mapped_bytes"; v4 added "obs"; v5 added "telemetry"; v6
// added "analytics").
// Changing StatsResponse without bumping StatsSchemaVersion — or bumping
// without updating this list — fails here. Keep the list sorted.
var statsSchemaV6 = []string{
	"analytics",
	"cluster",
	"counters",
	"ingested_traces",
	"jobs",
	"obs",
	"scale",
	"stats_schema_version",
	"store_dir",
	"store_entries",
	"store_gc",
	"store_schema_version",
	"telemetry",
	"trace_cache_bytes",
	"trace_cache_entries",
	"trace_cache_evictions",
	"trace_cache_hits",
	"trace_cache_mapped_bytes",
	"trace_cache_misses",
	"trace_registry_dir",
}

func TestStatsSchemaGolden(t *testing.T) {
	if StatsSchemaVersion != 6 {
		t.Fatalf("StatsSchemaVersion = %d: update statsSchemaV6 (or add a v%d golden) to match the new shape",
			StatsSchemaVersion, StatsSchemaVersion)
	}

	ts := newTestServer(t)
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	var version int
	if err := json.Unmarshal(doc["stats_schema_version"], &version); err != nil || version != StatsSchemaVersion {
		t.Fatalf("stats_schema_version = %s, want %d", doc["stats_schema_version"], StatsSchemaVersion)
	}

	// The served field set must be exactly the golden set. omitempty
	// fields (store_dir, trace_registry_dir) may be absent at runtime, so
	// compare against the struct's full tag set and separately confirm
	// nothing served is outside it.
	var tags []string
	rt := reflect.TypeOf(StatsResponse{})
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		if tag != "" {
			if idx := strings.IndexByte(tag, ','); idx >= 0 {
				tag = tag[:idx]
			}
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	if !reflect.DeepEqual(tags, statsSchemaV6) {
		t.Errorf("StatsResponse fields changed without a schema bump:\n got  %v\n want %v", tags, statsSchemaV6)
	}
	golden := make(map[string]bool, len(statsSchemaV6))
	for _, k := range statsSchemaV6 {
		golden[k] = true
	}
	for k := range doc {
		if !golden[k] {
			t.Errorf("served /stats field %q not in the v%d golden set", k, StatsSchemaVersion)
		}
	}
}
