package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"aodb/internal/clock"
	"aodb/internal/ingest"
	"aodb/internal/ratelimit"
)

// IngestResult is one row of the burst-absorption ablation: the same
// burst offered to the same rate-limited platform under each overload
// policy of the ingest queue (the §6.1 message-queue layer).
type IngestResult struct {
	Policy    string
	Burst     int
	Accepted  int64
	Rejected  int64
	Dropped   int64
	Drained   int64
	BurstTime time.Duration // how long Submit-side of the burst took
	DrainTime time.Duration // until the queue fully drained
}

// AblationIngest offers a burst far above the platform's drain rate to a
// bounded queue under each overload policy. Drain capacity is modeled by
// a token bucket (1,000 items/s), the queue holds 1/4 of the burst.
func AblationIngest(ctx context.Context, burst int) ([]IngestResult, error) {
	orDefault(&burst, 2000)
	var out []IngestResult
	for _, policy := range []struct {
		name string
		p    ingest.Policy
	}{
		{"reject", ingest.PolicyReject},
		{"drop-oldest", ingest.PolicyDropOldest},
		{"block", ingest.PolicyBlock},
	} {
		res, err := runIngestPolicy(ctx, policy.name, policy.p, burst)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func runIngestPolicy(ctx context.Context, name string, policy ingest.Policy, burst int) (IngestResult, error) {
	const drainRate = 1000.0
	bucket := ratelimit.NewBucket(clock.Real(), drainRate, 32)
	q, err := ingest.New(func(ctx context.Context, item int) error {
		return bucket.Take(ctx, 1)
	}, ingest.Config{
		Capacity: burst / 4,
		Workers:  4,
		Policy:   policy,
	})
	if err != nil {
		return IngestResult{}, err
	}
	var accepted int64
	start := time.Now()
	for i := 0; i < burst; i++ {
		if err := q.Submit(i); err == nil {
			accepted++
		}
	}
	burstTime := time.Since(start)
	q.Close() // drains whatever was admitted
	drainTime := time.Since(start)
	m := q.Metrics()
	return IngestResult{
		Policy:    name,
		Burst:     burst,
		Accepted:  accepted,
		Rejected:  m.Counter("ingest.rejected").Value(),
		Dropped:   m.Counter("ingest.dropped").Value(),
		Drained:   m.Counter("ingest.drained").Value(),
		BurstTime: burstTime,
		DrainTime: drainTime,
	}, nil
}

// PrintIngest renders the burst-absorption ablation.
func PrintIngest(w io.Writer, results []IngestResult) {
	fmt.Fprintln(w, "Ablation E — ingest queue overload policies (burst >> drain rate)")
	tw := newTable(w)
	fmt.Fprintln(tw, "policy\tburst\taccepted\trejected\tdropped\tdrained\tsubmit time\tfull drain")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			r.Policy, r.Burst, r.Accepted, r.Rejected, r.Dropped, r.Drained,
			ms(r.BurstTime), ms(r.DrainTime))
	}
	tw.Flush()
}
