// Package core implements the actor-oriented database runtime — this
// repository's reproduction of the Orleans virtual-actor substrate the
// paper builds its IoT data platform on, extended with the data-management
// hooks (persistent state, provisioned storage) that make it an AODB
// rather than a plain actor framework.
//
// # Virtual actors
//
// An actor is addressed by an ID (kind + key) and is logically always
// present: callers never create or destroy actors, they just Call them.
// The runtime activates an in-memory instance on first use, routes every
// message through a per-activation mailbox so application code is always
// single-threaded with respect to one actor, and deactivates instances
// that have been idle, persisting their state if configured. This is the
// activation model the paper's Section 5 describes for Orleans grains.
//
// # Topology
//
// A Runtime hosts one or more named silos (logical servers). The grain
// directory tracks which silo holds each activation; a placement strategy
// (random, prefer-local, or consistent-hash — see the placement package)
// chooses a silo on first activation. Messages between actors on different
// silos travel through a transport, which may charge simulated network
// latency (netsim) or cross real TCP connections.
//
// # Usage sketch
//
//	rt := core.New(core.Config{Store: kv})
//	rt.RegisterKind("Counter", func() core.Actor { return &counter{} },
//	    core.WithPersistence(core.PersistOnDeactivate))
//	rt.AddSilo("silo-1", nil)
//	resp, err := rt.Call(ctx, core.ID{Kind: "Counter", Key: "c1"}, Add{N: 2})
//
// CallManyOf sends one message to many actors — a query over an
// organization's channels, say — at one transport round trip per
// destination silo rather than one per actor; each target still runs an
// ordinary turn, and its answer comes back as a T.
//
// Actor implementations receive a *Context giving them their identity,
// asynchronous Call/Tell to other actors, and explicit state writes.
package core
