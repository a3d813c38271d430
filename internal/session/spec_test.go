package session

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dwst/must"
)

func TestDurationJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"50ms"`, 50 * time.Millisecond},
		{`"1.5s"`, 1500 * time.Millisecond},
		{`250`, 250 * time.Millisecond}, // bare numbers are milliseconds
		{`0`, 0},
	}
	for _, c := range cases {
		var d Duration
		if err := json.Unmarshal([]byte(c.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if time.Duration(d) != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, time.Duration(d), c.want)
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Duration
		if err := json.Unmarshal(b, &back); err != nil || back != d {
			t.Errorf("round trip of %s via %s: got %v err %v", c.in, b, back, err)
		}
	}
	for _, bad := range []string{`"xyz"`, `"5"`, `true`, `[1]`} {
		var d Duration
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("unmarshal %s: accepted malformed duration", bad)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	valid := Spec{Workload: "recvrecv", Procs: 8}
	cases := []struct {
		name    string
		mut     func(*Spec)
		wantErr bool
	}{
		{"valid minimal", func(s *Spec) {}, false},
		{"valid with fault", func(s *Spec) {
			s.Fault = &FaultSpec{Drop: 0.1, RankCrashes: "2:5,7", RankStalls: "1:3:5ms:busy"}
		}, false},
		{"missing workload", func(s *Spec) { s.Workload = "" }, true},
		{"unknown workload", func(s *Spec) { s.Workload = "nope" }, true},
		{"unknown spec proxy", func(s *Spec) { s.Workload = "spec:nope" }, true},
		{"zero procs", func(s *Spec) { s.Procs = 0 }, true},
		{"bad mode", func(s *Spec) { s.Mode = "quantum" }, true},
		{"centralized ok", func(s *Spec) { s.Mode = "centralized" }, false},
		{"centralized rejects fault", func(s *Spec) {
			s.Mode = "centralized"
			s.Fault = &FaultSpec{Drop: 0.1}
		}, true},
		{"negative fanin", func(s *Spec) { s.FanIn = -1 }, true},
		{"negative timeout", func(s *Spec) { s.Timeout = Duration(-time.Second) }, true},
		{"negative deadline", func(s *Spec) { s.Deadline = Duration(-1) }, true},
		{"drop above one", func(s *Spec) { s.Fault = &FaultSpec{Drop: 1.1} }, true},
		{"negative dup", func(s *Spec) { s.Fault = &FaultSpec{Dup: -0.5} }, true},
		{"negative reorder", func(s *Spec) { s.Fault = &FaultSpec{Reorder: -0.1} }, true},
		{"negative journal cap", func(s *Spec) { s.Fault = &FaultSpec{JournalCap: -1} }, true},
		{"negative crash node", func(s *Spec) { s.Fault = &FaultSpec{Crashes: []CrashSpec{{Node: -1}}} }, true},
		{"malformed rank crash", func(s *Spec) { s.Fault = &FaultSpec{RankCrashes: "1:2:3"} }, true},
		{"malformed rank stall", func(s *Spec) { s.Fault = &FaultSpec{RankStalls: "1:2"} }, true},
		{"centralized rejects differential", func(s *Spec) { s.Mode = "centralized"; s.Differential = true }, true},
		{"centralized rejects watchdog", func(s *Spec) { s.Mode = "centralized"; s.WatchdogQuiet = Duration(time.Second) }, true},
		{"centralized rejects mem_budget", func(s *Spec) { s.Mode = "centralized"; s.MemBudget = 1 << 20 }, true},
		{"mem_budget -1 (retired unbounded sentinel)", func(s *Spec) { s.MemBudget = -1 }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := valid
			c.mut(&s)
			err := s.Validate()
			if (err != nil) != c.wantErr {
				t.Fatalf("Validate(%+v) error = %v, wantErr %v", s, err, c.wantErr)
			}
		})
	}
}

func TestSpecOptionsMapsFaultPlan(t *testing.T) {
	no := false
	s := Spec{
		Workload: "recvrecv", Procs: 8, FanIn: 2,
		Timeout: Duration(10 * time.Millisecond),
		Fault: &FaultSpec{
			Seed: 7, Drop: 0.25, JitterMax: Duration(time.Millisecond),
			Crashes:     []CrashSpec{{Node: 1, After: Duration(5 * time.Millisecond)}},
			RankCrashes: "2:5",
			Recover:     &no,
			JournalCap:  64,
		},
	}
	opts, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	p := opts.Fault
	if p == nil {
		t.Fatal("no fault plan")
	}
	if p.Seed != 7 || p.JournalCap != 64 || p.Recover {
		t.Errorf("plan seed/cap/recover = %d/%d/%v, want 7/64/false", p.Seed, p.JournalCap, p.Recover)
	}
	if len(p.Rules) != 1 || p.Rules[0].Drop != 0.25 || p.Rules[0].JitterMax != time.Millisecond {
		t.Errorf("rules = %+v", p.Rules)
	}
	if len(p.Crashes) != 1 || p.Crashes[0].Layer != 0 || p.Crashes[0].Index != 1 {
		t.Errorf("crashes = %+v", p.Crashes)
	}
	if len(p.RankCrashes) != 1 || p.RankCrashes[0].Rank != 2 || p.RankCrashes[0].AtCall != 5 {
		t.Errorf("rank crashes = %+v", p.RankCrashes)
	}

	// Recover defaults to true when unset.
	s.Fault.Recover = nil
	opts, err = s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Fault.Recover {
		t.Error("nil Recover should default to true")
	}
}

func TestParseRankCrashesRejectsMalformed(t *testing.T) {
	for _, spec := range []string{"x", "1:2:3", "1:", ":5", "1,,2"} {
		if _, err := ParseRankCrashes(spec); err == nil {
			t.Errorf("ParseRankCrashes(%q) accepted malformed spec", spec)
		}
	}
	out, err := ParseRankCrashes("2:5,7")
	if err != nil || len(out) != 2 || out[0].Rank != 2 || out[0].AtCall != 5 || out[1].Rank != 7 || out[1].AtCall != 1 {
		t.Fatalf("ParseRankCrashes(\"2:5,7\") = %v, %v", out, err)
	}
}

func TestParseRankStallsRejectsMalformed(t *testing.T) {
	for _, spec := range []string{"1", "1:2", "a:2:5ms", "1:b:5ms", "1:2:zz", "1:2:5ms:spin"} {
		if _, err := ParseRankStalls(spec); err == nil {
			t.Errorf("ParseRankStalls(%q) accepted malformed spec", spec)
		}
	}
	out, err := ParseRankStalls("3:4:0:busy")
	if err != nil || len(out) != 1 || out[0].Rank != 3 || out[0].AtCall != 4 || out[0].For != 0 || !out[0].Busy {
		t.Fatalf("ParseRankStalls(\"3:4:0:busy\") = %v, %v", out, err)
	}
}

func TestSessionDifferentialStats(t *testing.T) {
	// The mustserve data path: a differential spec submitted as JSON must
	// surface engine verdicts (including the static pre-run pass) and
	// zero deviations in the session's RunStats.
	var spec Spec
	blob := `{"workload":"recvrecv","procs":4,"fanin":2,"timeout":"20ms","differential":true}`
	if err := json.Unmarshal([]byte(blob), &spec); err != nil {
		t.Fatal(err)
	}
	out := Run(context.Background(), &spec)
	if out.State != StateDone {
		t.Fatalf("state %s (%s)", out.State, out.Error)
	}
	st := out.Stats
	if st == nil || !st.Deadlock {
		t.Fatalf("stats = %+v", st)
	}
	for _, e := range []string{"wfg", "cmh", "twocycle", "static"} {
		if _, ok := st.EngineVerdicts[e]; !ok {
			t.Fatalf("engine %s missing from stats verdicts %v", e, st.EngineVerdicts)
		}
	}
	if st.EngineVerdicts["static"] != "deadlock" {
		t.Fatalf("static verdict %q on recvrecv", st.EngineVerdicts["static"])
	}
	if len(st.EngineDeviations) != 0 {
		t.Fatalf("deviations: %v", st.EngineDeviations)
	}
	if st.DroppedResults != 0 {
		t.Fatalf("dropped results: %d", st.DroppedResults)
	}
	if st.MemBudget != must.DefaultMemBudget {
		t.Fatalf("a spec without mem_budget ran under budget %d, want the default %d", st.MemBudget, must.DefaultMemBudget)
	}
}

// populate sets every settable field of a struct to a non-zero value, so
// that marshalling it emits every key, omitempty ones included.
func populate(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			populate(f)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1e6) // 1ms as a Duration, so the *_ms keys are non-zero too
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Map:
			f.Set(reflect.MakeMap(f.Type()))
			f.SetMapIndex(reflect.Zero(f.Type().Key()), reflect.Zero(f.Type().Elem()))
		}
	}
}

// TestStatsSchemaKeySet pins the stats JSON schema that mustserve clients,
// cmd_smoke_test.go and bench/serve.go decode: a fully populated report
// flattens to exactly these keys (the schema before Report and RunStats
// shared their counters struct, minus the retired "batch", plus
// "window_high_water" and "final_unverified", and "held_waits" in place
// of the retired intake gate's wait count).
func TestStatsSchemaKeySet(t *testing.T) {
	const want = "abandoned_frames bytes_on_wire codec_errors dead_last_calls dead_ranks deadlock " +
		"deadlocked detections dropped_events dropped_results elapsed_ms engine_deviations " +
		"engine_verdicts failure_blocked final_unverified held_waits interrupted journal_high_water lost_messages " +
		"mem_budget mem_high_water mode overflow_events overloaded partial potential_only procs " +
		"queue_bytes_hw queue_depth_hw reconnects recoveries replay_ms replayed_msgs " +
		"respawn_backoff_ms retransmits shipped_journal_entries snapshot_retries stalled_ranks " +
		"tool_nodes transport unknown_ranks verdict watchdog_fires window_high_water worker_respawns workload"
	var rep must.Report
	populate(reflect.ValueOf(&rep).Elem())
	st := StatsFor("recvrecv", 4, "distributed", "chan", &rep)
	st.Interrupted = true
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if g := strings.Join(keys, " "); g != want {
		t.Fatalf("stats JSON keys changed:\n got %s\nwant %s", g, want)
	}
}

// TestStatsSplitPartialCauses: a partial report says why it is partial.
// A final detection that gave up and an overloaded tool plane each set
// their own key beside "partial", and neither sets the other's.
func TestStatsSplitPartialCauses(t *testing.T) {
	for _, c := range []struct {
		name string
		rep  must.Report
		key  string
	}{
		{"final unverified", must.Report{Partial: true, FinalUnverified: true}, "final_unverified"},
		{"overloaded", must.Report{Partial: true, Overloaded: true}, "overloaded"},
	} {
		b, err := json.Marshal(StatsFor("clean", 4, "distributed", "chan", &c.rep))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"partial", "final_unverified", "overloaded"} {
			want := k == "partial" || k == c.key
			if v, _ := got[k].(bool); v != want {
				t.Errorf("%s: %q = %v, want %v", c.name, k, got[k], want)
			}
		}
	}
}
