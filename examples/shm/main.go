// Structural health monitoring end-to-end: a small bridge-monitoring
// deployment on the SHM data platform (the paper's first case study).
//
// The example installs an organization with extension and inclination
// sensors on two silos, streams a morning of readings (with a simulated
// structural event; the inclination gateway sends JSON, CSV and binary
// payloads in turn), and then exercises every online query the platform
// serves: live data, raw time ranges, historical data reaching past the
// in-memory window into the archive, accumulated change, statistical
// aggregates, and threshold alerts.
//
//	go run ./examples/shm
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"aodb/internal/core"
	"aodb/internal/devicefmt"
	"aodb/internal/kvstore"
	"aodb/internal/shm"
)

func main() {
	ctx := context.Background()
	// The store holds the archive of points older than a channel's window.
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	rt, err := core.New(core.Config{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
		defer cancel()
		rt.Shutdown(shCtx)
	}()
	for _, silo := range []string{"silo-1", "silo-2"} {
		if _, err := rt.AddSilo(silo, nil); err != nil {
			log.Fatal(err)
		}
	}
	platform, err := shm.NewPlatform(rt, shm.Options{PreferLocal: true})
	if err != nil {
		log.Fatal(err)
	}

	// One organization monitoring the Great Belt Bridge, with two sensors:
	// an extension sensor (with alert thresholds, a virtual channel
	// summing its two channels, and an 800-point window whose older points
	// go to the archive) and an inclination sensor.
	const org = "org-0"
	extension := shm.SensorKey(org, 0)
	if err := platform.InstallSensor(ctx, shm.SensorSpec{
		Org: org, Key: extension, PhysicalChannels: 2, WithVirtual: true,
		Threshold: shm.Threshold{Min: -25, Max: 25, Enabled: true},
		WindowCap: 800, Archive: true,
	}); err != nil {
		log.Fatal(err)
	}
	inclination := shm.SensorKey(org, 1)
	if err := platform.InstallSensor(ctx, shm.SensorSpec{
		Org: org, Key: inclination, PhysicalChannels: 2,
	}); err != nil {
		log.Fatal(err)
	}

	// Stream 2 hours of 10 Hz readings, one request per simulated second
	// (compressed: we just submit them back-to-back). Midway, a simulated
	// event pushes the extension beyond its alert threshold.
	start := time.Date(2026, 7, 5, 6, 0, 0, 0, time.UTC)
	fmt.Println("ingesting 2 simulated hours of sensor data...")
	// Heterogeneous devices (non-functional requirement 3): IngestRaw
	// recognizes each payload's format and normalizes it.
	encoders := []func(devicefmt.Packet) ([]byte, error){devicefmt.EncodeJSON, devicefmt.EncodeCSV, devicefmt.EncodeBinary}
	for sec := 0; sec < 7200; sec += 60 { // one request per simulated minute to keep the example quick
		at := start.Add(time.Duration(sec) * time.Second)
		phase := float64(sec) / 900
		spike := 0.0
		if sec == 3600 {
			spike = 40 // the event: a gust pushes extension out of band
		}
		ext := packet(10, func(i int) float64 { return 10*math.Sin(phase) + spike + float64(i)*0.01 })
		if err := platform.Ingest(ctx, extension, at, [][]float64{ext, packet(10, func(i int) float64 { return 5 * math.Cos(phase) })}); err != nil {
			log.Fatal(err)
		}
		payload, err := encoders[sec/60%len(encoders)](devicefmt.Packet{Sensor: inclination, At: at, PerChannel: [][]float64{
			packet(10, func(i int) float64 { return 0.2 * math.Sin(phase/2) }),
			packet(10, func(i int) float64 { return 0.1 * math.Cos(phase/2) }),
		}})
		if err != nil {
			log.Fatal(err)
		}
		if err := platform.IngestRaw(ctx, payload); err != nil {
			log.Fatal(err)
		}
	}
	// Asynchronous fan-out (channels, virtual channels, aggregators)
	// settles quickly; give it a moment.
	time.Sleep(200 * time.Millisecond)

	fmt.Println("\n--- live data (most recent value per channel) ---")
	live, err := platform.LiveData(ctx, org)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range live {
		fmt.Printf("  %-28s %8.3f at %s\n", r.Channel, r.Point.Value, r.Point.At.Format(time.TimeOnly))
	}

	fmt.Println("\n--- raw time range (extension ch-0, minute around the event) ---")
	pts, err := platform.RawData(ctx, shm.ChannelKey(extension, 0),
		start.Add(59*time.Minute), start.Add(61*time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d points; first %.2f, last %.2f\n", len(pts), pts[0].Value, pts[len(pts)-1].Value)

	fmt.Println("\n--- historical data (extension ch-0, the whole run: archive + window) ---")
	hist, err := platform.HistoricalData(ctx, shm.ChannelKey(extension, 0), start, start.Add(2*time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d points from %s to %s\n", len(hist), hist[0].At.Format(time.TimeOnly), hist[len(hist)-1].At.Format(time.TimeOnly))

	acc, err := platform.AccumulatedChange(ctx, shm.ChannelKey(extension, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- accumulated change on extension ch-0: %.2f ---\n", acc)

	fmt.Println("\n--- hourly aggregates (all channels of the org) ---")
	hours, err := platform.Aggregates(ctx, org, shm.LevelHour, "")
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range hours {
		fmt.Printf("  %s  n=%-5d mean=%8.3f min=%8.3f max=%8.3f\n",
			b.Bucket.Format("15:04"), b.Count, b.Mean(), b.Min, b.Max)
	}

	fmt.Println("\n--- threshold alerts ---")
	alerts, err := platform.Alerts(ctx, org, 5)
	if err != nil {
		log.Fatal(err)
	}
	if len(alerts) == 0 {
		log.Fatal("expected alerts from the simulated event")
	}
	for _, a := range alerts {
		fmt.Printf("  %s %s: %s (value %.2f)\n", a.At.Format(time.TimeOnly), a.Channel, a.Reason, a.Value)
	}
}

// packet builds one 10-reading packet with values from f.
func packet(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}
