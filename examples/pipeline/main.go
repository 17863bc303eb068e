// Production pipeline: the full architecture of the paper's Section 5 in
// one program — bursty devices behind a buffering ingest queue, a secured
// multi-tenant platform with per-role tokens, durable actor state in the
// WAL-backed store, and finally a star-schema export of the archived data
// for analytical queries.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"aodb/internal/auth"
	"aodb/internal/core"
	"aodb/internal/ingest"
	"aodb/internal/kvstore"
	"aodb/internal/shm"
	"aodb/internal/warehouse"
)

// reading is one buffered device submission.
type reading struct {
	token      string
	sensor     string
	at         time.Time
	perChannel [][]float64
}

func main() {
	dir, err := os.MkdirTemp("", "aodb-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// Durable storage (the DynamoDB analog) with provisioned throughput.
	store, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	rt, err := core.New(core.Config{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	platform, err := shm.NewPlatform(rt, shm.Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		log.Fatal(err)
	}
	authSvc, err := auth.New(rt)
	if err != nil {
		log.Fatal(err)
	}
	secure := shm.Secure(platform, authSvc)

	// Tenant setup: an engineer provisions, devices ingest, analysts read.
	const org = "org-0"
	engToken, err := authSvc.CreateUser(ctx, org, "engineer", auth.RoleEngineer)
	if err != nil {
		log.Fatal(err)
	}
	devToken, err := authSvc.CreateUser(ctx, org, "gateway-1", auth.RoleDevice)
	if err != nil {
		log.Fatal(err)
	}
	anaToken, err := authSvc.CreateUser(ctx, org, "analyst", auth.RoleAnalyst)
	if err != nil {
		log.Fatal(err)
	}
	sensor := shm.SensorKey(org, 0)
	if err := secure.InstallSensor(ctx, engToken, shm.SensorSpec{
		Org: org, Key: sensor, PhysicalChannels: 2, WithVirtual: true,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant provisioned: 1 sensor, 3 users (engineer/device/analyst)")

	// The ingest queue absorbs a burst 50x above the platform's pace.
	queue, err := ingest.New(func(ctx context.Context, r reading) error {
		return secure.Ingest(ctx, r.token, r.sensor, r.at, r.perChannel)
	}, ingest.Config{Capacity: 512, Workers: 2, Policy: ingest.PolicyBlock})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2026, 7, 5, 8, 0, 0, 0, time.UTC)
	const burst = 300
	for i := 0; i < burst; i++ {
		r := reading{
			token:  devToken,
			sensor: sensor,
			at:     start.Add(time.Duration(i) * time.Second),
			perChannel: [][]float64{
				{float64(i), float64(i) + 0.5},
				{float64(i) * 2, float64(i)*2 + 1},
			},
		}
		if err := queue.Submit(r); err != nil {
			log.Fatal(err)
		}
	}
	queue.Close() // drains the backlog
	m := queue.Metrics()
	fmt.Printf("ingest queue: %d submitted, %d drained, %d handler errors\n",
		m.Counter("ingest.enqueued").Value(), m.Counter("ingest.drained").Value(),
		m.Counter("ingest.handler_errors").Value())

	// An analyst reads live data; a device token cannot.
	if _, err := secure.LiveData(ctx, devToken, org); err == nil {
		log.Fatal("device token read data!")
	} else {
		fmt.Printf("device token correctly rejected for queries: %v\n", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		live, err := secure.LiveData(ctx, anaToken, org)
		if err != nil {
			log.Fatal(err)
		}
		// Each channel answers its newest reading, so the view has settled
		// once the virtual channel has combined the newest round: every
		// reading then carries the same time.
		settled := len(live) == 3
		for _, r := range live {
			if r.Point.At.IsZero() || !r.Point.At.Equal(live[0].Point.At) {
				settled = false
			}
		}
		if settled {
			fmt.Println("analyst live view:")
			for _, r := range live {
				fmt.Printf("  %-24s %10.1f\n", r.Channel, r.Point.Value)
			}
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("live data never settled")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The analyst's other online queries pass the same gate.
	channel := shm.ChannelKey(sensor, 0)
	pts, err := secure.RawData(ctx, anaToken, channel, start, start.Add(time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	hours, err := secure.Aggregates(ctx, anaToken, org, shm.LevelHour, channel)
	if err != nil {
		log.Fatal(err)
	}
	alerts, err := secure.Alerts(ctx, anaToken, org, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyst: %d raw points in the first minute of %s, %d hourly aggregate(s), %d alert(s)\n",
		len(pts), channel, len(hours), len(alerts))

	// Shut the runtime down: actor state archives into the store.
	if err := rt.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("runtime shut down; actor state archived to the WAL-backed store")

	// Export the archive into the star schema and run an analytical query.
	w := warehouse.New()
	n, err := warehouse.ExportFromStore(ctx, w, store, "grains")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warehouse: exported %d facts from archived grain state\n", n)
	rows, err := w.RollUp(warehouse.Filter{Org: org}, warehouse.GroupChannel, warehouse.ByHour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hourly roll-up by channel:")
	for _, r := range rows {
		fmt.Printf("  %-24s %s  n=%-5d mean=%9.1f min=%8.1f max=%8.1f\n",
			r.Group, r.Bucket.Format("15:04"), r.Count, r.Mean(), r.Min, r.Max)
	}
}
