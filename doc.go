// Package aodb is an actor-oriented database (AODB) for IoT data
// platforms: a from-scratch Go reproduction of "Modeling and Building IoT
// Data Platforms with Actor-Oriented Databases" (Wang et al., EDBT 2019).
//
// The implementation lives under internal/:
//
//   - internal/core — the virtual-actor runtime (Orleans-style grains:
//     on-demand activation, single-threaded turns, idle collection,
//     persistent state)
//   - internal/kvstore, internal/wal — the durable storage substrate
//     (the DynamoDB analog)
//   - internal/cluster, internal/directory, internal/placement,
//     internal/transport, internal/codec, internal/netsim — the
//     distribution substrate (on TCP a message is a length-prefixed binary
//     frame: a hand-written header and a tagged payload, with gob only as
//     the per-payload fallback for types without a registered form)
//   - internal/txn, internal/index, internal/streams — the database
//     features layered on the actor runtime (a query across actors is one
//     core.CallManyOf call)
//   - internal/shm — the structural health monitoring data platform
//     (the paper's implemented case study)
//   - internal/cattle — the beef cattle tracking and tracing platform
//     (both the Figure 3 actor model and the Figure 5 object model)
//   - internal/bench — the harness regenerating the paper's Figures 6-9
//     and the ablation experiments
//
// See README.md for a walkthrough, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-vs-measured results.
package aodb
