#ifndef TRIAD_SERVE_FLEET_SERVER_H_
#define TRIAD_SERVE_FLEET_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/streaming.h"
#include "serve/durability.h"
#include "serve/model_registry.h"

namespace triad::serve {

/// \file The fleet-serving layer (ARCHITECTURE.md §9): one process
/// multiplexing many independent StreamingTriad tenants over the shared
/// ThreadPool, FFT plan cache and checkpoint-backed ModelRegistry.
///
/// Contract in one line: a tenant served inside a fleet produces an alarm
/// timeline bit-identical to the same tenant run standalone — serving is a
/// scheduling layer, never a behaviour layer (tests/serve_test.cc).

/// \brief Admission verdict for one Ingest call (the fleet-level face of
/// the repair→degrade→reject ladder, ARCHITECTURE.md §5/§9).
///
///  * kAccepted — enqueued; the tenant is healthy.
///  * kDegraded — enqueued, but the tenant is on the ladder (its recent
///    passes keep failing sanitize): the caller should shed load or expect
///    gaps. Scoring continues and stays bit-identical to a standalone run
///    of the same feed.
///  * kRejected — dropped without ingesting (tenant rejecting rung, or a
///    queue bound was hit). Dropped chunks are as if the sensor never
///    produced them; the tenant's stream simply does not contain them.
enum class IngestStatus { kAccepted = 0, kDegraded = 1, kRejected = 2 };

const char* ToString(IngestStatus status);

/// \brief Fleet-wide tuning knobs. Defaults serve thousands of small
/// tenants on a workstation-class pool.
struct FleetOptions {
  /// Hard cap on registered tenants; AddTenant fails beyond it.
  int64_t max_tenants = 4096;
  /// Per-tenant backpressure: pending (ingested, not yet drained) points
  /// above this bound reject the offending chunk. 0 = 8 buffers' worth.
  int64_t max_pending_points_per_tenant = 0;
  /// Fleet-wide backpressure: total pending chunks across all tenants.
  int64_t max_queue_chunks = 1 << 16;

  /// QoS ladder thresholds over each tenant's recent pass outcomes
  /// (sliding window of `qos_window` passes, acted on once at least
  /// `qos_min_passes` have been observed): failure fraction >=
  /// `reject_failure_fraction` puts the tenant on the rejecting rung,
  /// >= `degrade_failure_fraction` on the degraded rung, below that it
  /// returns to healthy. All transitions are deterministic functions of
  /// the tenant's own pass history — one tenant can never move another
  /// tenant's rung.
  double degrade_failure_fraction = 0.25;
  double reject_failure_fraction = 0.75;
  int64_t qos_window = 16;  ///< clamped to [1, 64]
  int64_t qos_min_passes = 4;
  /// On the rejecting rung every `probation_interval`-th submitted chunk
  /// is still ingested (status kDegraded) so a tenant whose data comes
  /// back clean can climb down the ladder instead of starving forever.
  int64_t probation_interval = 4;

  /// Crash safety (ARCHITECTURE.md §10): set `durability.dir` to persist
  /// every tenant as snapshot + WAL and enable Recover()/Checkpoint().
  DurabilityOptions durability;

  /// Wall-clock budget for one tenant's Drain slice, enforced by the
  /// cooperative checkpoints inside Detect (common/deadline.h). A value
  /// that is not > 0, or too large for the steady clock to represent from
  /// the start of a slice, means no budget. A pass that reaches a
  /// checkpoint at or past the deadline becomes a gap, which counts as a
  /// failed pass on the QoS ladder — a tenant that keeps blowing its
  /// budget degrades, then rejects. Nothing interrupts a pass between
  /// checkpoints.
  double pass_deadline_seconds = 0.0;
};

/// \brief Per-tenant options at registration time.
struct TenantOptions {
  core::StreamingOptions streaming;
  /// ModelRegistry key recovery uses to re-resolve this tenant's detector
  /// (Get first, LoadCheckpoint as fallback — so a checkpoint path works
  /// unmodified). Required on a durable fleet; AddTenantFromCheckpoint
  /// fills it with the checkpoint path automatically.
  std::string model_key;
};

/// \brief The QoS rung a tenant currently occupies (see IngestStatus).
enum class QosRung { kHealthy = 0, kDegraded = 1, kRejecting = 2 };

const char* ToString(QosRung rung);

/// \brief Point-in-time fleet counters. `submitted == accepted + degraded
/// + rejected` holds exactly at every quiescent point (no Ingest call in
/// flight) — the admission-control invariant tests/serve_test.cc checks
/// property-style. Every field from `submitted` on, except the two pass
/// totals, counts events; each event also bumps the registry counter
/// `serve.<field>`, which sums every fleet in the process while metrics
/// are enabled. The levels (`tenants`, `queue_*`) have no registry twin.
struct FleetStats {
  int64_t tenants = 0;
  int64_t queue_chunks = 0;  ///< pending, fleet-wide
  int64_t queue_points = 0;  ///< pending, fleet-wide
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t degraded = 0;
  uint64_t rejected = 0;
  uint64_t passes = 0;         ///< clean inference passes across the fleet
  uint64_t failed_passes = 0;  ///< sanitize-rejected (gap) passes
  uint64_t batched_detects = 0;  ///< passes of drains that scored >=2 tenants
  uint64_t append_errors = 0;  ///< Append returned a hard error (bug-class)

  // Fault-tolerance counters (ARCHITECTURE.md §10).
  /// Admitted chunks durably logged (WAL-before-enqueue; a record rolled
  /// back because its enqueue failed is not counted — admission is atomic).
  uint64_t wal_records = 0;
  uint64_t wal_failures = 0;       ///< admissions rejected on WAL errors
  /// Tenant snapshots the writer lane has written. A state still queued,
  /// replaced by a newer one, or whose write failed does not count; call
  /// FlushSnapshots() first for an exact count.
  uint64_t snapshots = 0;
  uint64_t deadline_expired_passes = 0;  ///< drain slices over budget
  uint64_t admission_alloc_failures = 0;  ///< enqueue allocation failures
};

/// \brief Read-only view of one tenant.
struct TenantSnapshot {
  int64_t id = 0;
  uint64_t stream_uid = 0;  ///< the DetectMemo binding (ARCHITECTURE.md §9)
  QosRung rung = QosRung::kHealthy;
  int64_t total_points = 0;
  int64_t pending_points = 0;
  int64_t passes = 0;
  int64_t failed_passes = 0;
  std::vector<int> alarms;               ///< global 0/1 timeline copy
  std::vector<core::TimelineGap> gaps;   ///< unscored spans
  Status last_error;                     ///< OK unless Append ever errored
};

/// \brief One tenant Recover() refused to resurrect, and why. The tenant's
/// files stay on disk untouched for offline inspection; the fleet serves
/// everyone else.
struct QuarantinedTenant {
  int64_t id = 0;
  Status reason;  ///< DataLoss (corrupt WAL/snapshot) or a model failure
};

/// \brief What FleetServer::Recover reconstructed from disk.
struct RecoveryReport {
  int64_t tenants_recovered = 0;
  int64_t chunks_replayed = 0;
  int64_t points_replayed = 0;
  /// Tenants whose snapshot failed its checksum and were rebuilt by
  /// replaying the whole WAL instead (slower, bit-identical — the WAL is
  /// never truncated at snapshot time precisely to keep this fallback).
  int64_t snapshot_fallbacks = 0;
  /// WALs whose final record was torn by the crash (the expected artifact;
  /// the partial record is discarded and the file truncated to the last
  /// intact boundary).
  int64_t torn_wal_tails = 0;
  std::vector<QuarantinedTenant> quarantined;
  double recovery_seconds = 0.0;
};

/// \brief Chaos-harness seams (tests/serve_chaos_test.cc). Process-global;
/// install or clear them only while no fleet is draining and no snapshot
/// write is pending (FlushSnapshots() first). Production code never sets
/// these — every hook defaults to absent and costs one null check.
struct ServeTestHooks {
  /// Runs before each chunk's Append during a drain slice; a non-OK return
  /// replaces the Append and is that chunk's outcome, a hard error like a
  /// failed Append. A hook that polls CheckPassDeadline() until it fails
  /// models a pass that hangs until its deadline.
  std::function<Status(int64_t tenant_id)> before_append;
  /// Runs at admission just before the enqueue; returning true simulates
  /// the enqueue allocation throwing std::bad_alloc.
  std::function<bool(int64_t tenant_id)> admission_alloc_fail;
  /// Runs on the snapshot writer lane before each snapshot write; a non-OK
  /// return fails that write (as a disk error would), and a hook that
  /// blocks models a slow disk.
  std::function<Status(int64_t tenant_id)> before_snapshot_write;
};

/// Replaces the global hooks (test-only).
void SetServeTestHooks(ServeTestHooks hooks);
void ClearServeTestHooks();

/// \brief Multi-tenant serving front end over StreamingTriad
/// (ARCHITECTURE.md §9).
///
/// Usage:
///   serve::FleetServer fleet;
///   auto id = fleet.AddTenant(registry_detector);     // warm-started
///   fleet.Ingest(*id, chunk);                         // any thread
///   fleet.Drain();                                    // scoring happens
///   auto snap = fleet.Tenant(*id);                    // timeline, QoS
///
/// Threading model:
///  * Ingest is thread-safe and never blocks on a running pass: it touches
///    only the tenant's pending queue (its own mutex) and fleet-level
///    atomics, so a slow tenant cannot stall another tenant's producers.
///  * Drain is serialized (concurrent calls queue on an internal mutex).
///    One drain snapshots every tenant's pending chunks and runs one
///    ParallelFor over the ready tenants on the shared DefaultPool(), one
///    tenant per task, feeding each tenant's chunks — in ingest order —
///    through its StreamingTriad. Inside a task the pass's own
///    ParallelFors run inline; a drain with one ready tenant runs that
///    tenant on the calling thread, so its pass spreads across the pool.
///  * AddTenant/RemoveTenant may interleave with both; a tenant removed
///    mid-drain finishes its in-flight pass and is destroyed afterwards.
///  * A durable fleet owns one snapshot writer lane, the only thread a
///    fleet starts. It is the only writer of tenant snapshots:
///    Drain and Checkpoint hand it exported states (at most one pending
///    per tenant; a newer state replaces an unwritten one), so no verdict
///    waits on snapshot I/O. The destructor finishes pending writes, then
///    joins it.
///
/// Per-tenant ingest order is the caller's responsibility exactly as far
/// as the caller's own threading makes it: chunks from one producer
/// thread arrive in program order, and StreamingTriad's chunking
/// invariance makes the timeline independent of how drains slice them.
class FleetServer {
 public:
  explicit FleetServer(FleetOptions options = FleetOptions());
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Registers a tenant over a fitted, shared detector. Fails with
  /// InvalidArgument (null detector), FailedPrecondition (unfitted
  /// detector) or OutOfRange (fleet full). Returns the tenant id.
  Result<int64_t> AddTenant(
      std::shared_ptr<const core::TriadDetector> detector,
      TenantOptions options = TenantOptions());

  /// Warm-start convenience: loads (or reuses) the checkpoint through the
  /// registry, then AddTenant.
  Result<int64_t> AddTenantFromCheckpoint(ModelRegistry* registry,
                                          const std::string& checkpoint_path,
                                          TenantOptions options =
                                              TenantOptions());

  /// Unregisters a tenant; its pending chunks are discarded (removed from
  /// the fleet queue accounting) and its metrics stop updating.
  Status RemoveTenant(int64_t id);

  /// \brief Submits one chunk of points for a tenant; the admission path.
  ///
  /// Verdict order (deterministic; the property test mirrors it):
  ///  1. rejecting-rung tenants drop every chunk except each
  ///     `probation_interval`-th (which ingests as kDegraded);
  ///  2. a full fleet queue (max_queue_chunks) rejects;
  ///  3. a full tenant queue (max_pending_points_per_tenant) rejects;
  ///  4. otherwise the chunk is enqueued — kAccepted from a healthy
  ///     tenant, kDegraded from one on the ladder.
  /// Empty chunks are accepted no-ops. Unknown tenants are NotFound (an
  /// addressing error, not an admission verdict — not counted).
  Result<IngestStatus> Ingest(int64_t id, const std::vector<double>& points);

  /// \brief Scores everything pending; returns inference passes executed
  /// (clean + failed). Ready tenants fan out across the pool, one task
  /// each; per-tenant chunks apply in ingest order.
  ///
  /// On a durable fleet, each drained tenant that has run
  /// `durability.snapshot_every_passes` passes since its last snapshot
  /// hand-off, or whose last snapshot write failed, exports its state and
  /// hands it to the snapshot writer lane. Drain does no snapshot I/O and
  /// returns without waiting for the write.
  Result<int64_t> Drain();

  /// \brief Snapshots every tenant durably, then writes the manifest
  /// (durable fleets only; FailedPrecondition otherwise): hands every
  /// tenant's current state to the writer lane and waits for the writes
  /// (FlushSnapshots). A failed write returns its Status and leaves the
  /// manifest unwritten. The explicit flush for orderly shutdown.
  Status Checkpoint();

  /// \brief Waits until the writer lane has dealt with every state handed
  /// to it so far (written it, failed to, or written a newer state of the
  /// same tenant instead), and returns the first write failure since the
  /// previous call (OK if none). OK at once on a fleet without durability.
  Status FlushSnapshots();

  /// \brief Rebuilds the fleet from `durability.dir` after a crash.
  ///
  /// Must run on a fresh durable fleet (no tenants yet). Reads the
  /// manifest, then per tenant: re-resolves the model through `registry`
  /// (Get by key, else LoadCheckpoint treating the key as a path),
  /// restores the snapshot if its checksum holds — falling back to an
  /// empty stream when it does not — and replays WAL chunks after the
  /// snapshot's watermark through the ordinary scoring path. Because
  /// replay feeds the exact admitted chunks through a chunking-invariant
  /// stream, the recovered alarm timeline is bit-identical to an
  /// uninterrupted run's (tests/serve_chaos_test.cc sweeps kill points).
  ///
  /// A torn WAL tail (crash mid-append) is dropped and the file truncated
  /// to the last intact record. Interior WAL corruption, an undecodable
  /// snapshot, or an unresolvable model quarantines that tenant — listed
  /// in the report, never half-recovered, never blocking the others.
  /// A corrupt manifest fails the whole recovery with DataLoss.
  ///
  /// Bit-identical means the *alarm timeline*. The QoS window is rebuilt
  /// from pass outcomes alone (chunk-level error outcomes are not in the
  /// WAL), so a tenant recovered via snapshot fallback can sit on a
  /// different rung than the pre-crash fleet held — see durability.h.
  Result<RecoveryReport> Recover(ModelRegistry* registry);

  /// Read-only tenant view (waits for the tenant's in-flight pass).
  Result<TenantSnapshot> Tenant(int64_t id) const;

  /// Fleet-wide counters (exact at quiescent points; see FleetStats).
  FleetStats stats() const;

  const FleetOptions& options() const { return options_; }

 private:
  struct Impl;
  FleetOptions options_;
  Impl* impl_;
};

}  // namespace triad::serve

#endif  // TRIAD_SERVE_FLEET_SERVER_H_
