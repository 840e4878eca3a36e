package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gluenail/internal/server"
)

// requestBytes frames the first n requests of every session of a
// workload, acknowledging every write, as a client would send them.
func requestBytes(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, st := range w.streams() {
		for i := 0; i < n; i++ {
			req := st.next()
			if err := server.WriteFrame(&buf, wireRequest(req)); err != nil {
				t.Fatal(err)
			}
			if req.write() {
				st.done(req, true)
			}
		}
	}
	return buf.Bytes()
}

func TestSeedDeterminesRequestStream(t *testing.T) {
	for _, name := range workloadNames {
		a := requestBytes(t, name, 1, 5000)
		if b := requestBytes(t, name, 1, 5000); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different request streams", name)
		}
		if c := requestBytes(t, name, 2, 5000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", name)
		}
	}
}

// serve sets a workload up and returns its instance and executors.
func serve(t *testing.T, name string) (*workload, *instance, []executor) {
	t.Helper()
	w, err := newWorkload(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := setUp(w, filepath.Join(t.TempDir(), "db"), len(w.streams()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.stop() })
	return w, in, in.executors()
}

func TestCorruptedAnswerFailsRun(t *testing.T) {
	w, _, execs := serve(t, "tc-read")
	inner := execs[1]
	execs[1] = func(r request) ([][]int64, error) {
		rows, err := inner(r)
		if len(rows) > 0 {
			rows = rows[1:] // lose one row of every answer
		}
		return rows, err
	}
	ph := &phase{logs: drive(execs, w.streams(), nil, time.Time{}, []int{20, 20})}
	res := newResult(w, ph)
	if res.correct {
		t.Fatal("a run with corrupted answers was reported correct")
	}
	if ph.logs[0].wrong != nil || ph.logs[1].wrong == nil {
		t.Fatalf("wrong answers: session 0 %v, session 1 %v; want only session 1", ph.logs[0].wrong, ph.logs[1].wrong)
	}
}

// badStream turns every third request into a query the server refuses.
type badStream struct {
	stream
	n int
}

func (b *badStream) next() request {
	req := b.stream.next()
	if b.n++; b.n%3 == 0 {
		return request{kind: opQuery, goals: "tc(1,"}
	}
	return req
}

func TestRefusedRequestCountsAsFailed(t *testing.T) {
	w, _, execs := serve(t, "tc-read")
	streams := w.streams()
	streams[0] = &badStream{stream: streams[0]}
	ph := &phase{ticks: []tick{sample(time.Now())}}
	ph.logs = drive(execs, streams, nil, time.Time{}, []int{30, 30})
	ph.ticks = append(ph.ticks, sample(time.Now()))
	res := newResult(w, ph)
	if !res.correct {
		t.Fatalf("refused requests made the run incorrect: %v", res.wrong)
	}
	if res.attempted != 60 || res.failed != 10 {
		t.Fatalf("attempted %d failed %d, want 60 and 10", res.attempted, res.failed)
	}
	res.endToEnd(ph)
	if m := res.find("fail_share"); m == nil || *m.Value != 10.0/60 {
		t.Fatalf("fail_share %+v, want 10/60", m)
	}
}

// TestResultLineMatchesBenchmarkJSON runs every workload briefly in both
// modes and checks that the JSON line carries exactly the metrics
// BENCHMARK.json lists, with its units.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for trace, want := range [][]named{spec.EndToEnd, spec.PerLayer} {
			cfg := config{workload: name, seed: 1, seconds: 1, trace: trace, dir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, trace == 1); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct {
				t.Errorf("%s trace %d: incorrect run: %v", name, trace, res.wrong)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s is %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
