package warehouse

import (
	"context"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/shm"
)

var t0 = time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC)

func seed(w *Warehouse) {
	// org-1: two channels; org-2: one channel; across two hours.
	for i := 0; i < 10; i++ {
		at := t0.Add(time.Duration(i*20) * time.Minute) // spans 4 hours
		w.AddReading("org-1", "s1", "s1/ch-0", Physical, at, float64(i))
		w.AddReading("org-1", "s1", "s1/ch-1", Physical, at, float64(i*10))
		w.AddReading("org-2", "s9", "s9/ch-0", Physical, at, 100)
	}
	w.AddReading("org-1", "s1", "s1/virt", Virtual, t0, 42)
}

func TestRowsAndChannels(t *testing.T) {
	w := New()
	seed(w)
	if len(w.times) != 31 {
		t.Fatalf("rows = %d, want 31", len(w.times))
	}
	if len(w.channels) != 4 {
		t.Fatalf("channels = %d, want 4 (dictionary interning broken)", len(w.channels))
	}
}

func TestRollUpByOrgAndHour(t *testing.T) {
	w := New()
	seed(w)
	rows, err := w.RollUp(Filter{}, GroupOrg, ByHour)
	if err != nil {
		t.Fatal(err)
	}
	// 10 readings at 20-min spacing span 4 distinct hours (10:00-13:00):
	// org-1 has those 4 buckets (virt included in hour 10), org-2 has 4.
	var org1, org2 int
	for _, r := range rows {
		switch r.Group {
		case "org-1":
			org1++
		case "org-2":
			org2++
		default:
			t.Fatalf("unexpected group %q", r.Group)
		}
	}
	if org1 != 4 || org2 != 4 {
		t.Fatalf("buckets org1=%d org2=%d, want 4/4", org1, org2)
	}
	// First org-1 hour: readings i=0,1,2 on two channels + the virtual 42.
	first := rows[0]
	if first.Group != "org-1" || !first.Bucket.Equal(t0) {
		t.Fatalf("first row = %+v", first)
	}
	if first.Count != 7 { // 3 from ch-0, 3 from ch-1, 1 virtual
		t.Fatalf("first.Count = %d, want 7", first.Count)
	}
	wantSum := (0 + 1 + 2) + (0 + 10 + 20) + 42.0
	if first.Sum != wantSum {
		t.Fatalf("first.Sum = %v, want %v", first.Sum, wantSum)
	}
}

func TestRollUpByChannelAndDay(t *testing.T) {
	w := New()
	seed(w)
	rows, err := w.RollUp(Filter{Org: "org-1"}, GroupChannel, ByDay)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v, want 3 channels x 1 day", rows)
	}
	if rows[0].Group != "s1/ch-0" || rows[0].Count != 10 || rows[0].Min != 0 || rows[0].Max != 9 {
		t.Fatalf("ch-0 day row = %+v", rows[0])
	}
	if rows[1].Group != "s1/ch-1" || rows[1].Sum != 450 {
		t.Fatalf("ch-1 day row = %+v", rows[1])
	}
	if rows[1].Mean() != 45 {
		t.Fatalf("mean = %v", rows[1].Mean())
	}
	if rows[2].Group != "s1/virt" || rows[2].Count != 1 || rows[2].Sum != 42 {
		t.Fatalf("virtual day row = %+v", rows[2])
	}
}

func TestRollUpMonthGrain(t *testing.T) {
	w := New()
	w.AddReading("o", "s", "c", Physical, time.Date(2026, 7, 1, 5, 0, 0, 0, time.UTC), 1)
	w.AddReading("o", "s", "c", Physical, time.Date(2026, 7, 30, 5, 0, 0, 0, time.UTC), 2)
	w.AddReading("o", "s", "c", Physical, time.Date(2026, 8, 1, 5, 0, 0, 0, time.UTC), 4)
	rows, err := w.RollUp(Filter{}, GroupOrg, ByMonth)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Sum != 3 || rows[1].Sum != 4 {
		t.Fatalf("month rows = %+v", rows)
	}
}

func TestRollUpUnknownGrouping(t *testing.T) {
	w := New()
	if _, err := w.RollUp(Filter{}, GroupBy("bogus"), ByHour); err == nil {
		t.Fatal("bogus grouping accepted")
	}
}

func TestExportFromStore(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx := context.Background()

	rt, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := shm.NewPlatform(rt, shm.Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	sensor := shm.SensorKey("org-0", 0)
	if err := platform.InstallSensor(ctx, shm.SensorSpec{
		Org: "org-0", Key: sensor, PhysicalChannels: 2, WithVirtual: true,
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		at := t0.Add(time.Duration(r) * time.Second)
		if err := platform.Ingest(ctx, sensor, at, [][]float64{{1, 2}, {10, 20}}); err != nil {
			t.Fatal(err)
		}
	}
	// Let async channel/virtual processing finish, then archive.
	deadline := time.Now().Add(3 * time.Second)
	for {
		pts, err := platform.RawData(ctx, shm.VirtualKey(sensor), t0.Add(-time.Hour), t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("virtual window = %d points", len(pts))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	w := New()
	n, err := ExportFromStore(ctx, w, kv, "grains")
	if err != nil {
		t.Fatal(err)
	}
	// 2 channels x 6 points + virtual x 6.
	if n != 18 || len(w.times) != 18 {
		t.Fatalf("exported %d facts, want 18", n)
	}
	// Two physical channels, then the virtual one, in one hour.
	rows, err := w.RollUp(Filter{Org: "org-0"}, GroupChannel, ByHour)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Count != 6 || rows[1].Count != 6 {
		t.Fatalf("rollup = %+v", rows)
	}
	// The virtual channel sums each row: 11, 22, 11, 22, 11, 22.
	if virt := rows[2]; virt.Group != shm.VirtualKey(sensor) || virt.Count != 6 || virt.Min != 11 || virt.Sum != 99 {
		t.Fatalf("virtual facts = %+v", virt)
	}
	// Every channel's org and sensor come from its key.
	for _, ch := range w.channels {
		if ch.Org != "org-0" || ch.Sensor != sensor {
			t.Fatalf("channel %s: org %q, sensor %q, want org-0, %q", ch.Name, ch.Org, ch.Sensor, sensor)
		}
	}
}

func TestExportMissingTable(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if _, err := ExportFromStore(context.Background(), New(), kv, "ghost"); err == nil {
		t.Fatal("missing table accepted")
	}
}
