package pfs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dosas/internal/audit"
	"dosas/internal/eventlog"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/transport"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// newDroppedSampler builds a sampler whose 2-point ring has already
// overwritten two samples.
func newDroppedSampler(t testing.TB) *telemetry.Sampler {
	t.Helper()
	s := telemetry.NewSampler(telemetry.Config{Capacity: 2})
	s.Register("x", func() float64 { return 1 })
	for i := 0; i < 4; i++ {
		s.Tick()
	}
	if s.Dropped() != 2 {
		t.Fatalf("sampler dropped = %d, want 2", s.Dropped())
	}
	return s
}

// attachedPlanes returns a data server's config with every plane attached,
// each already showing its scalar: the sampler has dropped 2 samples, the
// trace ring 4 events, the audit ring 1 record and the event ring 1 event
// (next seq 4); the tenant table has evicted 1 tenant and the archive's
// oldest point is at 5 s.
func attachedPlanes(t testing.TB, node string) DataConfig {
	t.Helper()
	tele := newDroppedSampler(t)
	tr := trace.NewRecorder(16)
	for i := uint64(1); i <= 20; i++ {
		tr.Record(trace.KindArrive, i, "sum8", 0, "")
	}
	al := audit.NewLog(1)
	al.Append(audit.Record{Solver: "maxgain", Trigger: "admit"})
	al.Append(audit.Record{Solver: "maxgain", Trigger: "admit"})
	events, err := eventlog.New(eventlog.Config{Node: node, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	events.Info("test", "first")
	events.Warn("test", "second")
	events.Warn("test", "third")
	engine, err := slo.NewEngine(slo.Config{Rules: slo.DefaultRules(), Sampler: tele, Node: node})
	if err != nil {
		t.Fatal(err)
	}
	tab := tenant.NewTable(1)
	tab.Account("a", func(s *tenant.Stats) { s.ReadOps++ })
	tab.Account("b", func(s *tenant.Stats) { s.ReadOps++ })
	arch, err := tsdb.Open(tsdb.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arch.Close() })
	if err := arch.Append(5e9, 5e9, []telemetry.Sample{{Name: "x", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	return DataConfig{
		Store: NewMemStore(), Node: node, Telemetry: tele, Trace: tr, Audit: al,
		Events: events, SLO: engine, Tenants: tab, Archive: arch,
	}
}

// introspectNodes starts a data and a metadata server on an in-process
// network, with every plane nil or every plane attached, and returns a
// pool and the two addresses.
func introspectNodes(t *testing.T, attached bool) (p *Pool, data, meta string) {
	t.Helper()
	dcfg := DataConfig{Store: NewMemStore(), Node: "data-0"}
	mcfg := MetaConfig{NumDataServers: 1}
	if attached {
		dcfg = attachedPlanes(t, "data-0")
		m := attachedPlanes(t, "meta")
		mcfg.Telemetry, mcfg.Events, mcfg.SLO, mcfg.Archive = m.Telemetry, m.Events, m.SLO, m.Archive
	}
	ds, err := NewDataServer(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMetaServer(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	n := transport.NewInproc()
	for addr, h := range map[string]Handler{"data": ds, "meta": ms} {
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(l, h)
		srv.Start()
		t.Cleanup(srv.Close)
	}
	p = NewPool(n)
	t.Cleanup(p.Close)
	return p, "data", "meta"
}

// TestIntrospect asks every kind of a data server and of a metadata
// server, first with every plane nil and then with every plane attached:
// nil planes answer empty, attached ones carry their scalars, the
// storage-only kinds are unsupported on the metadata server, and an
// unknown kind or undecodable params are refused with their status.
func TestIntrospect(t *testing.T) {
	for _, attached := range []bool{false, true} {
		p, data, meta := introspectNodes(t, attached)
		ask := func(addr, kind string, params, reply any) {
			t.Helper()
			node, err := Introspect(p, addr, kind, params, reply)
			if err != nil {
				t.Fatalf("attached=%v %s %s: %v", attached, addr, kind, err)
			}
			if want := map[string]string{"data": "data-0", "meta": "meta"}[addr]; node != want {
				t.Fatalf("%s %s answered as %q, want %q", addr, kind, node, want)
			}
		}
		for _, addr := range []string{data, meta} {
			var st StatsReply
			ask(addr, KindStats, nil, &st)
			if st.Role != addr || st.Mode != "" || addr == data && len(st.Stats.Counters) == 0 {
				t.Errorf("attached=%v %s stats = %+v", attached, addr, st)
			}
			var h telemetry.HealthReport
			ask(addr, KindHealth, nil, &h)
			if h.Role != addr || !h.Ready || h.UptimeNano <= 0 || len(h.Checks) < 2 {
				t.Errorf("attached=%v %s health = %+v", attached, addr, h)
			}
			var tr TraceReply
			ask(addr, KindTrace, nil, &tr)
			var ser SeriesReply
			ask(addr, KindSeries, SeriesParams{Names: []string{"x", "absent"}}, &ser)
			var ev EventReply
			ask(addr, KindEvents, EventParams{SinceSeq: 2}, &ev)
			var alerts []slo.Alert
			ask(addr, KindAlerts, nil, &alerts)
			var q QueryReply
			ask(addr, KindQuery, QueryParams{Name: "x", FromNano: 0, ToNano: 1e10}, &q)

			wantTrace, wantPoints, wantEarliest := 0, 0, int64(0)
			wantSeries, wantTick, wantSamplesDropped := 0, int64(0), uint64(0)
			wantEvents, wantNext, wantEventsDropped, wantAlerts := 0, uint64(1), uint64(0), 0
			if attached {
				wantPoints, wantEarliest = 1, 5e9
				wantSeries, wantTick, wantSamplesDropped = 1, int64(telemetry.DefaultInterval), 2
				wantEvents, wantNext, wantEventsDropped, wantAlerts = 1, 4, 1, len(slo.DefaultRules())
				if addr == data {
					wantTrace = 16 // the metadata server keeps no trace ring
				} else {
					// It logs its own start: one event more, one more dropped.
					wantEvents, wantNext, wantEventsDropped = 2, 5, 2
				}
			}
			if len(tr.Events) != wantTrace || tr.Dropped != uint64(wantTrace/4) {
				t.Errorf("attached=%v %s trace: %d events, %d dropped", attached, addr, len(tr.Events), tr.Dropped)
			}
			if len(ser.Series) != wantSeries || ser.TickNano != wantTick || ser.Dropped != wantSamplesDropped {
				t.Errorf("attached=%v %s series = %+v", attached, addr, ser)
			}
			if len(ev.Events) != wantEvents || ev.NextSeq != wantNext || ev.Dropped != wantEventsDropped {
				t.Errorf("attached=%v %s events = %+v", attached, addr, ev)
			}
			if len(alerts) != wantAlerts {
				t.Errorf("attached=%v %s: %d alerts, want %d", attached, addr, len(alerts), wantAlerts)
			}
			if len(q.Points) != wantPoints || q.EarliestNano != wantEarliest {
				t.Errorf("attached=%v %s query = %+v", attached, addr, q)
			}
		}

		var tr TraceReply
		ask(data, KindTrace, TraceParams{ReqID: 20}, &tr)
		if attached && (len(tr.Events) != 1 || tr.Events[0].ReqID != 20) {
			t.Errorf("trace of request 20 = %+v", tr.Events)
		}
		var dr DecisionReply
		ask(data, KindDecisions, DecisionParams{Limit: 5}, &dr)
		var ten TenantReply
		ask(data, KindTenants, nil, &ten)
		wantRecords, wantDropped, wantEvicted := 0, uint64(0), uint64(0)
		if attached {
			wantRecords, wantDropped, wantEvicted = 1, 1, 1
		}
		if len(dr.Records) != wantRecords || dr.Dropped != wantDropped {
			t.Errorf("attached=%v decisions = %+v", attached, dr)
		}
		if ten.Evicted != wantEvicted || attached != (len(ten.Usage) > 0) {
			t.Errorf("attached=%v tenants = %+v", attached, ten)
		}

		for _, c := range []struct {
			addr, kind string
			params     any
			code       uint32
		}{
			{meta, KindDecisions, nil, wire.StatusUnsupported},
			{meta, KindTenants, nil, wire.StatusUnsupported},
			{data, "nonesuch", nil, wire.StatusUnsupported},
			{data, KindSeries, json.RawMessage(`{"window_nano":"soon"}`), wire.StatusInvalid},
			{meta, KindEvents, json.RawMessage(`[1,2]`), wire.StatusInvalid},
			{data, KindStats, json.RawMessage(`"x"`), wire.StatusInvalid},
		} {
			var reply json.RawMessage
			_, err := Introspect(p, c.addr, c.kind, c.params, &reply)
			var re *RemoteError
			if !errors.As(err, &re) || re.Code != c.code {
				t.Errorf("attached=%v %s %s %v: err = %v, want status %d", attached, c.addr, c.kind, c.params, err, c.code)
			}
		}
	}
}

// FuzzIntrospect asks a data server with every plane attached for any
// kind with any params: it never panics, and answers with a reply, or
// refuses the kind as unsupported or the params as invalid.
func FuzzIntrospect(f *testing.F) {
	for _, k := range []string{KindStats, KindTrace, KindHealth, KindSeries, KindDecisions,
		KindEvents, KindAlerts, KindTenants, KindQuery, "", "nonesuch"} {
		f.Add(k, []byte(nil))
		f.Add(k, []byte(`{}`))
	}
	f.Add(KindTrace, []byte(`{"req_id":3}`))
	f.Add(KindSeries, []byte(`{"window_nano":-9223372036854775808,"names":["x",""]}`))
	f.Add(KindDecisions, []byte(`{"limit":18446744073709551615,"trace_id":1}`))
	f.Add(KindEvents, []byte(`{"since_seq":1,"limit":18446744073709551615,"min_level":255}`))
	f.Add(KindQuery, []byte(`{"name":"x","from_nano":-1,"to_nano":9223372036854775807,"step_nano":-5}`))
	f.Add(KindQuery, []byte(`{"name":"../x","from_nano":9,"to_nano":1}`))
	f.Add(KindHealth, []byte(`[`))
	ds, err := NewDataServer(attachedPlanes(f, "data-0"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind string, params []byte) {
		resp, err := ds.Handle(&wire.IntrospectReq{Kind: kind, Params: params})
		if err != nil {
			if code := ToErrorMsg("introspect", err).Code; code != wire.StatusUnsupported && code != wire.StatusInvalid {
				t.Fatalf("%q %q: %v (status %d)", kind, params, err, code)
			}
			return
		}
		ir, ok := resp.(*wire.IntrospectResp)
		if !ok || ir.Node != "data-0" || !json.Valid(ir.Body) {
			t.Fatalf("%q %q: answered %#v", kind, params, resp)
		}
	})
}

// TestSeriesFetchCarriesDropped checks a data server's series reply
// reports how many ring samples were overwritten, alongside the tick.
func TestSeriesFetchCarriesDropped(t *testing.T) {
	tele := newDroppedSampler(t)
	ds, err := NewDataServer(DataConfig{Store: NewMemStore(), Node: "data-0", Telemetry: tele})
	if err != nil {
		t.Fatal(err)
	}
	var sr SeriesReply
	if _, err := IntrospectLocal(ds, KindSeries, nil, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Dropped != 2 || sr.TickNano != int64(tele.Interval()) {
		t.Fatalf("Dropped = %d, TickNano = %d; want 2, %d", sr.Dropped, sr.TickNano, tele.Interval())
	}
	if len(sr.Series) != 1 || sr.Series[0].Name != "x" {
		t.Fatalf("series = %+v", sr.Series)
	}
}

// TestHealthSurfacesRingDrops checks the node's health report carries an
// informational telemetry check once the ring has overwritten samples —
// without degrading readiness.
func TestHealthSurfacesRingDrops(t *testing.T) {
	ds, err := NewDataServer(DataConfig{Store: NewMemStore(), Node: "data-0", Telemetry: newDroppedSampler(t)})
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.HealthReport
	if _, err := IntrospectLocal(ds, KindHealth, nil, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Ready {
		t.Fatalf("ring drops degraded readiness: %+v", rep)
	}
	found := false
	for _, chk := range rep.Checks {
		if chk.Name == "telemetry" {
			found = true
			if !chk.OK || !strings.Contains(chk.Detail, "2 ring samples overwritten") {
				t.Fatalf("telemetry check = %+v", chk)
			}
		}
	}
	if !found {
		t.Fatalf("no telemetry check in %+v", rep.Checks)
	}
}

// TestEventAndAlertFetch reads a data server's event tail and alert table,
// including the since-cursor sweeps depend on.
func TestEventAndAlertFetch(t *testing.T) {
	events, err := eventlog.New(eventlog.Config{Node: "data-0"})
	if err != nil {
		t.Fatal(err)
	}
	events.Info("test", "first")
	events.Warn("test", "second")
	tele := telemetry.NewSampler(telemetry.Config{})
	engine, err := slo.NewEngine(slo.Config{Rules: slo.DefaultRules(), Sampler: tele, Node: "data-0"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServer(DataConfig{
		Store: NewMemStore(), Node: "data-0",
		Telemetry: tele, Events: events, SLO: engine,
	})
	if err != nil {
		t.Fatal(err)
	}

	var er EventReply
	if _, err := IntrospectLocal(ds, KindEvents, nil, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Events) != 2 || er.Events[0].Msg != "first" || er.Events[1].Msg != "second" || er.NextSeq != 3 {
		t.Fatalf("events = %+v, next %d", er.Events, er.NextSeq)
	}
	// A cursor past the first event returns only what came later.
	er = EventReply{}
	if _, err := IntrospectLocal(ds, KindEvents, EventParams{SinceSeq: 1}, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Events) != 1 || er.Events[0].Msg != "second" {
		t.Fatalf("cursored events = %+v", er.Events)
	}

	var alerts []slo.Alert
	if _, err := IntrospectLocal(ds, KindAlerts, nil, &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != len(slo.DefaultRules()) {
		t.Fatalf("alerts = %d, want %d rules", len(alerts), len(slo.DefaultRules()))
	}
	for _, a := range alerts {
		if a.Node != "data-0" || a.State != slo.StateInactive {
			t.Fatalf("alert = %+v", a)
		}
	}
}
