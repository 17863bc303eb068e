package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"aodb/internal/cattle"
	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
)

// PlacementResult is one row of the placement ablation (§5): the same
// ingestion workload under different activation-placement strategies.
type PlacementResult struct {
	Strategy    string
	Throughput  float64
	InsertP50   time.Duration
	InsertP99   time.Duration
	LocalCalls  int64
	RemoteCalls int64
}

// RemoteFraction returns the share of calls that crossed silos.
func (r PlacementResult) RemoteFraction() float64 {
	total := r.LocalCalls + r.RemoteCalls
	if total == 0 {
		return 0
	}
	return float64(r.RemoteCalls) / float64(total)
}

// AblationPlacement runs the ingestion workload on 4 silos under random,
// prefer-local, and consistent-hash placement with the SameAZ network
// model, measuring how many actor calls pay a network hop. The paper had
// to switch sensor channels and aggregators to prefer-local "to minimize
// the need to perform remote procedure calls".
func AblationPlacement(ctx context.Context, opts FigureOptions) ([]PlacementResult, error) {
	opts.fill()
	var out []PlacementResult
	for _, strategy := range []string{"random", "prefer-local", "hash"} {
		res, err := RunSHM(ctx, SHMConfig{
			Sensors:   800,
			Silos:     4,
			Scale:     opts.Scale,
			Duration:  opts.Duration,
			Warmup:    opts.Warmup,
			Placement: strategy,
			Network:   true,
		})
		if err != nil {
			return out, fmt.Errorf("bench: placement ablation %s: %w", strategy, err)
		}
		out = append(out, PlacementResult{
			Strategy:    strategy,
			Throughput:  res.ThroughputRPS,
			InsertP50:   res.Insert.PercentileDuration(50),
			InsertP99:   res.Insert.PercentileDuration(99),
			LocalCalls:  res.LocalCalls,
			RemoteCalls: res.RemoteCalls,
		})
	}
	return out, nil
}

// DurabilityResult is one row of the durability-policy ablation (§5).
type DurabilityResult struct {
	Policy        string
	Throughput    float64
	InsertP50     time.Duration
	InsertP99     time.Duration
	StorageWrites int64
	Errors        int64
}

// AblationDurability compares durability policies for 100 sensors (200
// channels — the Great Belt Bridge scale §5 discusses) against a grain
// store provisioned at 200 writes/s: no writes, write-on-deactivate,
// write-per-request (which needs exactly the provisioned limit and
// therefore rides the throttling edge), and write-per-request against a
// disk-backed durable store, where every acknowledged write is also
// fsynced via the WAL group commit.
func AblationDurability(ctx context.Context, opts FigureOptions) ([]DurabilityResult, error) {
	opts.fill()
	policies := []struct {
		name       string
		store      bool
		everyBatch bool
		durable    bool
	}{
		{"none", false, false, false},
		{"on-deactivate", true, false, false},
		{"every-request", true, true, false},
		{"every-request-durable", true, true, true},
	}
	var out []DurabilityResult
	for _, pol := range policies {
		var store *kvstore.Store
		var cleanupDir string
		if pol.store {
			var err error
			storeOpts := kvstore.Options{}
			if pol.durable {
				dir, err := os.MkdirTemp("", "aodb-durable-ablation-")
				if err != nil {
					return out, err
				}
				cleanupDir = dir
				storeOpts = kvstore.Options{Dir: dir, Durable: true}
			}
			store, err = kvstore.Open(storeOpts)
			if err != nil {
				if cleanupDir != "" {
					os.RemoveAll(cleanupDir)
				}
				return out, err
			}
			if err := store.CreateTable(core.StateTable, kvstore.Throughput{ReadUnits: 200, WriteUnits: 200}); err != nil {
				store.Close()
				if cleanupDir != "" {
					os.RemoveAll(cleanupDir)
				}
				return out, err
			}
		}
		res, err := RunSHM(ctx, SHMConfig{
			Sensors:         100,
			Silos:           1,
			Scale:           opts.Scale,
			Duration:        opts.Duration,
			Warmup:          opts.Warmup,
			Store:           store,
			WriteEveryBatch: pol.everyBatch,
		})
		var writes int64
		if store != nil {
			writes = store.Metrics().Counter("kvstore.writes").Value()
			store.Close()
		}
		if cleanupDir != "" {
			os.RemoveAll(cleanupDir)
		}
		if err != nil {
			return out, fmt.Errorf("bench: durability ablation %s: %w", pol.name, err)
		}
		out = append(out, DurabilityResult{
			Policy:        pol.name,
			Throughput:    res.ThroughputRPS,
			InsertP50:     res.Insert.PercentileDuration(50),
			InsertP99:     res.Insert.PercentileDuration(99),
			StorageWrites: writes,
			Errors:        res.Errors,
		})
	}
	return out, nil
}

// TraceModelResult is one row of the actor-vs-object representation
// ablation (§4.3, Figure 3 vs Figure 5).
type TraceModelResult struct {
	Model      string
	Traces     int
	HopsPer    float64
	MeanLat    time.Duration
	P99Lat     time.Duration
	TurnsTotal int64 // actor turns consumed across the run
}

// AblationCattleModels builds the same supply chain in both models and
// measures consumer traces: actor hops, latency, and total actor turns.
func AblationCattleModels(ctx context.Context, cows, tracesPerProduct int) ([]TraceModelResult, error) {
	if cows <= 0 {
		cows = 20
	}
	if tracesPerProduct <= 0 {
		tracesPerProduct = 25
	}
	rt, err := core.New(core.Config{IdleAfter: time.Hour, CollectEvery: time.Hour})
	if err != nil {
		return nil, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt.Shutdown(shCtx)
	}()
	for i := 1; i <= 2; i++ {
		if _, err := rt.AddSilo(fmt.Sprintf("silo-%d", i), nil); err != nil {
			return nil, err
		}
	}
	p, err := cattle.NewPlatform(rt, cattle.Options{})
	if err != nil {
		return nil, err
	}
	born := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := rt.Call(ctx, core.ID{Kind: cattle.KindFarmer, Key: "farm-1"}, cattle.CreateFarmer{Name: "farm-1"}); err != nil {
		return nil, err
	}

	// Build both chains for every cow.
	type productRef struct{ actorProduct, objRetailer, objProduct string }
	var products []productRef
	for i := 0; i < cows; i++ {
		cow := fmt.Sprintf("cow-%d", i)
		if err := p.RegisterCow(ctx, cow, "farm-1", "angus", born); err != nil {
			return nil, err
		}
		// Actor-model chain.
		sh := core.ID{Kind: cattle.KindSlaughterhouse, Key: "sh-1"}
		if i == 0 {
			rt.Call(ctx, sh, cattle.CreateSlaughterhouse{Name: "sh"})
			rt.Call(ctx, core.ID{Kind: cattle.KindDistributor, Key: "dist-1"}, cattle.CreateDistributor{Name: "d"})
			rt.Call(ctx, core.ID{Kind: cattle.KindRetailer, Key: "ret-1"}, cattle.CreateRetailer{Name: "r"})
			rt.Call(ctx, core.ID{Kind: cattle.KindObjSlaughterhouse, Key: "osh-1"}, cattle.CreateSlaughterhouse{Name: "osh"})
			rt.Call(ctx, core.ID{Kind: cattle.KindObjRetailer, Key: "oret-1"}, cattle.CreateRetailer{Name: "or"})
		}
		cut1, cut2 := cow+"/c1", cow+"/c2"
		if _, err := rt.Call(ctx, sh, cattle.Slaughter{Cow: cow, CutIDs: []string{cut1, cut2}, CutWeight: 10}); err != nil {
			return nil, err
		}
		for j, cut := range []string{cut1, cut2} {
			if _, err := rt.Call(ctx, core.ID{Kind: cattle.KindDistributor, Key: "dist-1"}, cattle.Dispatch{
				Delivery: fmt.Sprintf("%s/d%d", cow, j), Cut: cut,
				From: "sh-1", To: "ret-1", Vehicle: "truck", Departed: born, Arrived: born.Add(time.Hour),
			}); err != nil {
				return nil, err
			}
			if _, err := rt.Call(ctx, core.ID{Kind: cattle.KindRetailer, Key: "ret-1"}, cattle.ReceiveCut{Cut: cut}); err != nil {
				return nil, err
			}
		}
		product := cow + "/p"
		if _, err := rt.Call(ctx, core.ID{Kind: cattle.KindRetailer, Key: "ret-1"}, cattle.MakeProduct{
			Product: product, Name: "box", Cuts: []string{cut1, cut2}, MadeAt: born,
		}); err != nil {
			return nil, err
		}
		// Object-model chain for a parallel cow (slaughter is once-only, so
		// use a dedicated cow).
		ocow := fmt.Sprintf("ocow-%d", i)
		if err := p.RegisterCow(ctx, ocow, "farm-1", "angus", born); err != nil {
			return nil, err
		}
		osh := core.ID{Kind: cattle.KindObjSlaughterhouse, Key: "osh-1"}
		oc1, oc2 := ocow+"/c1", ocow+"/c2"
		if _, err := rt.Call(ctx, osh, cattle.ObjSlaughter{Cow: ocow, CutIDs: []string{oc1, oc2}, CutWeight: 10}); err != nil {
			return nil, err
		}
		for _, cut := range []string{oc1, oc2} {
			if _, err := rt.Call(ctx, osh, cattle.ObjSendCut{Cut: cut, ToKind: cattle.KindObjRetailer, ToKey: "oret-1"}); err != nil {
				return nil, err
			}
		}
		oprod := ocow + "/p"
		if _, err := rt.Call(ctx, core.ID{Kind: cattle.KindObjRetailer, Key: "oret-1"}, cattle.ObjMakeProduct{
			Product: oprod, Name: "box", Cuts: []string{oc1, oc2},
		}); err != nil {
			return nil, err
		}
		products = append(products, productRef{actorProduct: product, objRetailer: "oret-1", objProduct: oprod})
	}

	turns := rt.Metrics().Counter("core.turns")
	run := func(model string, trace func(productRef) (cattle.Trace, error)) (TraceModelResult, error) {
		hist := metrics.NewHistogram()
		startTurns := turns.Value()
		var hops, count int
		for _, ref := range products {
			for k := 0; k < tracesPerProduct; k++ {
				start := time.Now()
				tr, err := trace(ref)
				if err != nil {
					return TraceModelResult{}, fmt.Errorf("bench: %s trace: %w", model, err)
				}
				hist.RecordDuration(time.Since(start))
				hops += tr.Hops
				count++
			}
		}
		snap := hist.Snapshot()
		return TraceModelResult{
			Model:      model,
			Traces:     count,
			HopsPer:    float64(hops) / float64(count),
			MeanLat:    time.Duration(int64(snap.Mean())),
			P99Lat:     snap.PercentileDuration(99),
			TurnsTotal: turns.Value() - startTurns,
		}, nil
	}

	actorRes, err := run("actor (fig 3)", func(ref productRef) (cattle.Trace, error) {
		return p.TraceProduct(ctx, ref.actorProduct)
	})
	if err != nil {
		return nil, err
	}
	objRes, err := run("object (fig 5)", func(ref productRef) (cattle.Trace, error) {
		return p.TraceProductObjects(ctx, ref.objRetailer, ref.objProduct)
	})
	if err != nil {
		return nil, err
	}
	return []TraceModelResult{actorRes, objRes}, nil
}

// ConstraintResult is one row of the §4.4 constraint-mode ablation.
type ConstraintResult struct {
	Mode        string
	Transfers   int
	Failed      int
	MeanLat     time.Duration
	P99Lat      time.Duration
	Violations  int
	ElapsedSecs float64
}

// AblationConstraints stresses cow-ownership transfers under contention
// in each §4.4 mode and verifies the relationship invariant afterwards.
func AblationConstraints(ctx context.Context, transfersPerWorker, workers int) ([]ConstraintResult, error) {
	if transfersPerWorker <= 0 {
		transfersPerWorker = 30
	}
	if workers <= 0 {
		workers = 4
	}
	var out []ConstraintResult
	for _, mode := range []string{cattle.ModeTxn, cattle.ModeRegistry, cattle.ModeWorkflow} {
		res, err := runConstraintMode(ctx, mode, transfersPerWorker, workers)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func runConstraintMode(ctx context.Context, mode string, transfersPerWorker, workers int) (ConstraintResult, error) {
	rt, err := core.New(core.Config{IdleAfter: time.Hour, CollectEvery: time.Hour})
	if err != nil {
		return ConstraintResult{}, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt.Shutdown(shCtx)
	}()
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	p, err := cattle.NewPlatform(rt, cattle.Options{})
	if err != nil {
		return ConstraintResult{}, err
	}
	born := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	farmers := []string{"farm-1", "farm-2"}
	for _, f := range farmers {
		if _, err := rt.Call(ctx, core.ID{Kind: cattle.KindFarmer, Key: f}, cattle.CreateFarmer{Name: f}); err != nil {
			return ConstraintResult{}, err
		}
	}
	// One cow per worker so contention is per-cow bounce between farms.
	var cows []string
	for w := 0; w < workers; w++ {
		cow := fmt.Sprintf("cow-%d", w)
		if err := p.RegisterCow(ctx, cow, "farm-1", "angus", born); err != nil {
			return ConstraintResult{}, err
		}
		cows = append(cows, cow)
	}

	hist := metrics.NewHistogram()
	type outcome struct{ ok, fail int }
	results := make(chan outcome, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(cow string) {
			var o outcome
			from, to := "farm-1", "farm-2"
			for i := 0; i < transfersPerWorker; i++ {
				t0 := time.Now()
				err := p.Transfer(ctx, mode, cow, from, to)
				hist.RecordDuration(time.Since(t0))
				if err != nil {
					o.fail++
					continue
				}
				o.ok++
				from, to = to, from
			}
			results <- o
		}(cows[w])
	}
	var ok, fail int
	for w := 0; w < workers; w++ {
		o := <-results
		ok += o.ok
		fail += o.fail
	}
	elapsed := time.Since(start)

	violations := 0
	if mode == cattle.ModeRegistry {
		// The registry holds the relation; cross-check herd partitioning.
		seen := map[string]int{}
		for _, f := range farmers {
			v, err := rt.Call(ctx, core.ID{Kind: cattle.KindOwnershipRegistry, Key: "global"}, cattle.RegHerd{Farmer: f})
			if err != nil {
				return ConstraintResult{}, err
			}
			for _, c := range v.([]string) {
				seen[c]++
			}
		}
		for _, c := range cows {
			if seen[c] != 1 {
				violations++
			}
		}
	} else {
		vs, err := p.CheckOwnershipConsistency(ctx, cows, farmers)
		if err != nil {
			return ConstraintResult{}, err
		}
		violations = len(vs)
	}
	snap := hist.Snapshot()
	return ConstraintResult{
		Mode:        mode,
		Transfers:   ok,
		Failed:      fail,
		MeanLat:     time.Duration(int64(snap.Mean())),
		P99Lat:      snap.PercentileDuration(99),
		Violations:  violations,
		ElapsedSecs: elapsed.Seconds(),
	}, nil
}
