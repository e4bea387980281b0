// Package codedterasort reproduces "Coded TeraSort" (Li, Supittayapornpong,
// Maddah-Ali, Avestimehr; IPDPS 2017, arXiv:1702.04850): a distributed
// sorting algorithm that imposes structured redundancy in the Map stage —
// every input file is hashed on r carefully chosen nodes — to create
// in-network coding opportunities that cut the data-shuffling load by ~r,
// speeding up the TeraSort benchmark 1.97x-3.39x on bandwidth-limited
// clusters.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory, the streaming-pipeline design notes, and the out-of-core
// external sort: internal/extsort provides spill-to-disk run generation
// and the loser-tree merge behind the MemBudget knob),
// with runnable binaries under cmd/, whose README.md lines CI runs as the
// worked examples. TeraSort is cmd/codedterasort at -r 1.
// A job is described once: internal/job's Spec — (K, r, input, network)
// plus every runtime knob — is the engine's configuration, the cluster
// spec, the JSON on the wire, the sortd job body and the struct the shared
// flags (cmd/internal/flags) bind onto, with one Validate and one Resolve
// (DESIGN.md section 16).
// Placement is a strategy seam (internal/placement.Strategy): the paper's
// clique scheme — C(K, r) subfiles, C(K, r+1) multicast groups — is the
// default, and -strategy resolvable swaps in a resolvable-design
// construction (internal/placement/resolvable) with q^(r-1) subfiles and
// q^r - q^(r-1) groups for K = q*r, collapsing the CodeGen wall at large
// K (992 groups instead of 41,664 at K=64, r=2), so K=64-128 jobs run on
// one machine, one goroutine per rank, byte-identical to the uncoded
// oracle (DESIGN.md section 14).
// There is one sort engine, internal/coded: CodedTeraSort at any
// redundancy r, with conventional TeraSort as its r = 1 endpoint (groups
// of two members: unicast shuffle, identity coding, no CodeGen). Its
// multicast is application-layer, as the paper's MPI_Bcast is: each coded
// packet relays down a chain of its group (transport.ChainBcast), so the
// root's egress carries it once and members forward it on their own links
// while the next root sends; under a bandwidth cap a packet leaves in
// segments, so a member forwards one while the root sends the next. The
// engine writes out, as a plain list, the paper's fixed stage sequence
// (CodeGen, Map, Shuffle, Reduce, with Pack/Encode and Unpack/Decode
// inside the Shuffle: each rank encodes its packets segment by segment
// while earlier roots hold the wire, each segment is decoded as it
// arrives, and a reducer orders, merges and compacts the partition while
// the wire is busy) in the monolithic,
// chunk-streaming or out-of-core form, one switch on
// the job spec picking which, and each worker walks its list. The walk is
// the one place a stage is measured: it charges the per-stage breakdown
// and reports the same event to one stage hook, which feeds the cluster
// stage log in process and over TCP alike (DESIGN.md section 3).
// Workers are multicore: the Parallelism knob (-procs on the CLIs) runs each worker's map scatter, the sort kernel (Reduce and
// spill runs alike) and packet encode on deterministic parallel
// kernels (internal/parallel) that produce byte-identical output at any
// goroutine count.
// Execution is straggler-resilient: the cluster runtime supervises every
// run — crash signals and peer-relative stage deadlines (fed by progress
// frames over TCP, plus heartbeats once a deadline is armed) declare dead
// or straggling ranks, the attempt is canceled so no peer ever hangs at a
// faulty rank's barrier, and cluster.Supervise, the one supervisor of sort
// and MapReduce jobs alike, in process or over TCP, re-executes with the
// faulty worker respawned until the job completes byte-identical to a healthy run
// (Spec.StageDeadline/MaxAttempts/Faults; -deadline and -stragglers on the
// CLIs; DESIGN.md section 10). Coding's redundancy doubles as straggler
// tolerance: a straggler's penalty scales with shuffle volume, which
// coding cuts by ~r — the straggler-mitigation story of the coded-computing
// literature the paper cites.
// The paper's "Beyond Sorting Algorithms" direction is first-class:
// internal/mapreduce runs arbitrary Mapper/Reducer kernels over the same
// engine and supervisor — the replication factor alone selects uncoded or
// coded execution — with four built-in kernels (word count, grep, inverted
// index, log aggregation) exposed by cmd/codedmr, and a kernel-generic
// equivalence harness (internal/mapreduce/mrtest) gating every registered
// kernel to byte-identical output across engines, execution modes,
// parallelism and recovered runs (DESIGN.md section 11).
// The whole runtime also serves: internal/service is a multi-tenant
// serving layer — a priority job queue with per-tenant admission control
// over one job table, job-scoped spill namespaces, an HTTP JSON
// API with a Go client, Prometheus-style /metrics and graceful drain —
// run as the long-lived cmd/sortd daemon, which admits jobs against one
// count of rank slots and runs each through cluster.RunLocalOpts, and
// driven by cmd/sortctl (DESIGN.md section 12).
// Partitioning is skew-robust: beyond the paper's uniform key-domain
// split, -partition sample selects K-1 quantile splitters from a
// deterministic stride sample of the input keys, derived by one function
// (job.Spec.DeriveSplitters) with no traffic, so every rank, engine, mode
// and recovery attempt partitions identically (internal/partition; -dist
// selects the skewed-workload generators
// zipf/sorted/nearsorted/dupheavy/varprefix that defeat the uniform split;
// DESIGN.md section 15).
// Input is generated, not read: kv.Generator is addressable by row —
// record i is a pure function of (seed, distribution, i) — so any party
// materialises any file with no data movement. Every runtime hands a rank
// its files one by one: in process an in-memory file is made once, by the
// first of its r holders to load it, and the others read it in place; TCP
// workers make their own. Each file's lowest-ranked holder describes it in
// the pass that places it, so nothing regenerates the input to verify a
// job. One block kernel produces every row:
// the 82-letter value filler, a serial 64-bit LCG by definition, runs as
// eight jump-ahead lanes (v_(n+j) = a^j v_n + c(a^j-1)/(a-1) mod 2^64)
// with a letter table and word stores, byte-identical to the serial chain.
// The bytes are frozen — replicas are XORed against each other in
// decoding, and every golden digest in the tree is a digest of generated
// input (DESIGN.md section 2).
// cmd/tables prints the paper's evaluation, every job priced by
// simnet.Simulate, the one predictor; the benchmarks in bench_test.go
// regenerate every table and figure of it; the tests in internal/simnet
// pin the reproduced values against the paper's tables; the bench/ module (BENCHMARK.json)
// measures every layer and whole jobs end to end.
package codedterasort
