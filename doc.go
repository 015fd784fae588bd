// Package repro is a production-quality Go reproduction of "Supporting
// Mobility in Content-Based Publish/Subscribe Middleware" (Fiege, Gärtner,
// Kasten, Zeidler — MIDDLEWARE 2003).
//
// The implementation lives under internal/: the data model with canonical
// sorted attribute slices and a binary codec (message), content-based
// filters with covering and perfect merging (filter), the location
// substrate with movement graphs and ploc (location), location-dependent
// filter templates and widening schedules (locfilter), routing tables
// with an access-predicate match index, the routing-strategy ladder, and
// the incremental cover/merge control plane (routing), the protocol
// messages shared by all layers (wire), the bounded-queue flow-control
// primitive behind every mailbox and send window (flow), in-process and
// TCP FIFO links (transport), the broker engine with its single-owner run
// loop, the physical-mobility relocation protocol,
// and logical-mobility location-dependent filters (broker), the
// embedding API with self-healing overlays and client failover (core),
// the Section 3 baselines (baseline), a deterministic simulator (sim),
// the experiment harness regenerating every table and figure
// (experiments), message-category counters (metrics), and the godoc and
// OPERATIONS.md drift guards (doclint, opsdoc).
//
// Two binaries wrap the library: cmd/rebeca-broker, a TCP broker daemon
// that joins a static (-peer) overlay or a self-healing one through a
// shared membership file (-registry), and cmd/rebeca-client, a shell client with failover across a
// broker list. Runnable embeddings live under examples/.
//
// See README.md for a walkthrough, OPERATIONS.md for running and tuning
// the binaries, DESIGN.md for the system inventory, and EXPERIMENTS.md
// for the paper-versus-measured record. bench_test.go in this directory
// regenerates every evaluation artifact as a Go benchmark.
package repro
