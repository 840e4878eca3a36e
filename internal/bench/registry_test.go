package bench

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRegistryMatchesExperimentIndex keeps the registry in step with the
// experiment index in DESIGN.md §4 and the sections of EXPERIMENTS.md.
func TestRegistryMatchesExperimentIndex(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments {
		if ids[e.ID] {
			t.Errorf("registry ID %s is not unique", e.ID)
		}
		ids[e.ID] = true
	}
	design := readDoc(t, "DESIGN.md")
	index := design[strings.Index(design, "\n## 4."):]
	index = index[:strings.Index(index[1:], "\n## ")]
	listed := regexp.MustCompile(`(?m)^\| ([A-Z]\d+) \|`).FindAllStringSubmatch(index, -1)
	if len(listed) == 0 {
		t.Fatal("no experiment rows found in DESIGN.md §4")
	}
	for _, m := range listed {
		if id := m[1]; id != "E19" && !ids[id] { // E19 lives in clientbench/
			t.Errorf("DESIGN.md §4 lists %s, which has no registry entry", id)
		}
	}
	experiments := readDoc(t, "EXPERIMENTS.md")
	for id := range ids {
		if !regexp.MustCompile(`(?m)^## ` + id + `\b`).MatchString(experiments) {
			t.Errorf("registry entry %s has no `## %s` section in EXPERIMENTS.md", id, id)
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTablesRenderUnderTheirHeaders renders every table and record from
// placeholder results, without running a case: each row fills its header,
// case names are unique within an experiment and carry no spaces, and
// every record marshals.
func TestTablesRenderUnderTheirHeaders(t *testing.T) {
	for _, e := range Experiments {
		names := map[string]bool{}
		var res [][]Result
		for _, tb := range e.Tables {
			var rs []Result
			for _, c := range tb.Cases {
				if names[c.Name] || strings.ContainsAny(c.Name, " \t") {
					t.Errorf("%s: case name %q is repeated or has spaces", e.ID, c.Name)
				}
				names[c.Name] = true
				rs = append(rs, Result{Name: c.Name, Group: c.Group, Ops: 1, Time: time.Millisecond})
			}
			rows := tb.Rows(rs)
			if len(rows) == 0 {
				t.Errorf("%s: %q renders no rows", e.ID, tb.Title)
			}
			for _, row := range rows {
				if len(row) != len(tb.Header) {
					t.Errorf("%s: row %q does not fill header %q", e.ID, row, tb.Header)
				}
			}
			res = append(res, rs)
		}
		if e.Record != nil {
			if _, err := json.Marshal(e.Record(res)); err != nil {
				t.Errorf("%s record: %v", e.ID, err)
			}
		}
	}
}

func TestAgreeComparesWithinGroups(t *testing.T) {
	ok := []Result{
		{Name: "a", Group: "1", Answer: "x"}, {Name: "b", Group: "1", Answer: "x"},
		{Name: "c", Group: "2", Answer: "y"}, {Name: "skipped", Group: "1"},
	}
	if err := Agree(ok); err != nil {
		t.Fatal(err)
	}
	if err := Agree(append(ok, Result{Name: "d", Group: "2", Answer: "z"})); err == nil {
		t.Fatal("a differing answer in group 2 passed")
	}
}
