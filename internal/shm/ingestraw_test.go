package shm

import (
	"context"
	"testing"
	"time"

	"aodb/internal/devicefmt"
)

// TestIngestRawAllFormats feeds the same readings through all three
// device wire formats and checks they land identically in the channel
// windows — requirement 3's heterogeneous-data support, end to end.
func TestIngestRawAllFormats(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	encoders := map[string]func(devicefmt.Packet) ([]byte, error){
		"json":   devicefmt.EncodeJSON,
		"csv":    devicefmt.EncodeCSV,
		"binary": devicefmt.EncodeBinary,
	}
	i := 0
	for name, enc := range encoders {
		sensor := SensorKey("org-0", i)
		i++
		if err := p.InstallSensor(ctx, SensorSpec{Org: "org-0", Key: sensor, PhysicalChannels: 2}); err != nil {
			t.Fatal(err)
		}
		payload, err := enc(devicefmt.Packet{
			Sensor: sensor,
			At:     t0,
			PerChannel: [][]float64{
				{1, 2, 3},
				{10, 20, 30},
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.IngestRaw(ctx, payload); err != nil {
			t.Fatalf("%s: IngestRaw: %v", name, err)
		}
		waitLatest(t, p, ChannelKey(sensor, 0), 3)
		pts, err := p.RawData(ctx, ChannelKey(sensor, 1), t0.Add(-time.Minute), t0.Add(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 3 || pts[2].Value != 30 {
			t.Fatalf("%s: channel 1 = %+v", name, pts)
		}
	}
}

func TestIngestRawRejectsGarbage(t *testing.T) {
	p := newPlatform(t, Options{})
	if err := p.IngestRaw(context.Background(), []byte("total nonsense,\nnot,numbers\n")); err == nil {
		t.Fatal("garbage payload ingested")
	}
}

func TestIngestRawUnknownSensorErrors(t *testing.T) {
	p := newPlatform(t, Options{})
	payload, err := devicefmt.EncodeJSON(devicefmt.Packet{
		Sensor:     "org-9@sensor-0",
		At:         t0,
		PerChannel: [][]float64{{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sensor actor exists virtually but has no channels configured:
	// the packet/channel count mismatch surfaces as an error.
	if err := p.IngestRaw(context.Background(), payload); err == nil {
		t.Fatal("ingest into unconfigured sensor succeeded")
	}
}
