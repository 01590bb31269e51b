// Package cluster promotes flovd from a single node to a shared-nothing
// cluster: any number of worker processes pull leased jobs from a
// persistent store on a shared directory, execute them through the
// existing sweep.Engine, and work-steal each other's preempted job
// slices by adopting checkpoint snapshots when a lease expires. A
// stateless front door serves flovd's own /v1/sweeps API and wire types
// (package service), adding per-tenant quotas and rate limits, and
// replays a job's event feed from the store — a front-door restart
// loses nothing, and the service client cannot tell the planes apart.
//
// The correctness contract is byte-identical determinism: the same spec
// produces the same result rows whether it ran on one node, on three,
// or was stolen mid-slice, because every row is a deterministic
// function of its sweep.Job and checkpoint restore is byte-exact
// (internal/snapshot's acceptance gate). That contract is what makes
// the design simple — a lease race that double-executes a point wastes
// CPU but cannot corrupt results, so leases only need to be atomic, not
// perfectly fenced.
//
// Store layout (one directory, shared by NFS-free local mounts or a
// single machine's processes):
//
//	jobs/<id>.json        job record, published by atomic link (idempotent submit)
//	jobs/<id>.done.json   terminal marker, first writer wins
//	leases/<id>.<epoch>   lease epochs, claimed by atomic hard link
//	events/<id>.ndjson    job event feed, append-only, torn-tail tolerant:
//	                      stream replay, and point events carry the rows
//	results/<id>.json     canonical final row set, written once at completion
//	snaps/<id>/<n>.snap   mid-run checkpoints of preempted points
//	cache/                the workers' shared sweep.Cache (Store.CacheDir)
//
// Everything wall-clock (leases, deadlines, polling) lives here and in
// cmd/flovd; simulation packages stay on cycle time — flovlint pins
// that, with internal/cluster allowlisted alongside internal/service.
package cluster
