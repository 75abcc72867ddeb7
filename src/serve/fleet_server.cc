#include "serve/fleet_server.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"

namespace triad::serve {
namespace {

// One fleet event count: the fleet's own exact tally, which stats() reads
// whatever TRIAD_METRICS says, and the process-wide `serve.*` registry
// counter of the same name, which sums every fleet. One Add bumps both, so
// the two ledgers cannot drift apart.
class EventCount {
 public:
  explicit EventCount(std::string_view name)
      : exported_(metrics::Registry::Global().counter(name)) {}

  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    exported_->Increment(n);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  metrics::Counter* exported_;
};

ServeTestHooks g_test_hooks;

}  // namespace

void SetServeTestHooks(ServeTestHooks hooks) {
  g_test_hooks = std::move(hooks);
}

void ClearServeTestHooks() { g_test_hooks = ServeTestHooks(); }

const char* ToString(IngestStatus status) {
  switch (status) {
    case IngestStatus::kAccepted:
      return "accepted";
    case IngestStatus::kDegraded:
      return "degraded";
    case IngestStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

const char* ToString(QosRung rung) {
  switch (rung) {
    case QosRung::kHealthy:
      return "healthy";
    case QosRung::kDegraded:
      return "degraded";
    case QosRung::kRejecting:
      return "rejecting";
  }
  return "unknown";
}

// One tenant: its stream, its pending queue, its QoS history. Two mutexes
// keep the admission path off the inference path — `queue_mu` guards only
// the pending queue (what Ingest touches), `state_mu` guards the stream and
// QoS history (what Drain touches), so a producer never waits out a pass.
struct TenantState {
  int64_t id = 0;
  std::shared_ptr<const core::TriadDetector> detector;  // keeps model alive
  int64_t max_pending_points = 0;
  std::string model_key;  // manifest row; immutable after registration

  std::mutex queue_mu;
  std::deque<std::vector<double>> pending;  // ingest order
  int64_t pending_points = 0;               // guarded by queue_mu
  int64_t probation_counter = 0;            // guarded by queue_mu
  // Durable ingest (guarded by queue_mu): the WAL an admitted chunk hits
  // before it enters `pending`, and the seq the next chunk will carry.
  WalWriter wal;
  uint64_t wal_next_seq = 0;  // seq of the last record written

  mutable std::mutex state_mu;
  core::StreamingTriad stream;  // guarded by state_mu
  Status last_error;            // guarded by state_mu
  // Sliding window of recent pass outcomes (1 = failed), newest at
  // `qos_next`; drives the deterministic rung transitions.
  std::array<uint8_t, 64> qos_outcomes{};  // guarded by state_mu
  int64_t qos_next = 0;
  int64_t qos_count = 0;
  // WAL records with seq <= this are reflected in `stream` (state_mu).
  uint64_t chunks_applied_seq = 0;
  // Snapshot cadence (state_mu): lifetime passes at the last hand-off to
  // the writer lane, and whether the lane's last write of this tenant
  // failed (then the next Drain hands it off whatever the cadence says).
  int64_t passes_at_last_snapshot = 0;
  bool snapshot_failed = false;
  // The newest exported state the writer lane has not taken yet, and the
  // ticket of the oldest hand-off it stands for. Guarded by the fleet's
  // snapshot_mu, not by this tenant's mutexes.
  std::optional<TenantDurableState> snapshot_pending;
  uint64_t snapshot_since = 0;

  // Written by Drain under state_mu, read lock-free by Ingest.
  std::atomic<int> rung{static_cast<int>(QosRung::kHealthy)};

  // Sets the pending-points budget: the fleet's per-tenant bound, or 8
  // buffers' worth when that bound is 0.
  TenantState(std::shared_ptr<const core::TriadDetector> d,
              const core::StreamingOptions& streaming,
              const FleetOptions& options)
      : detector(std::move(d)), stream(detector.get(), streaming) {
    max_pending_points = options.max_pending_points_per_tenant > 0
                             ? options.max_pending_points_per_tenant
                             : 8 * stream.buffer_length();
  }
};

namespace {

// Slides the QoS window by one drain slice's outcomes and recomputes the
// rung — a pure function of the tenant's own pass history. Caller holds
// state_mu. Shared by Drain and WAL replay so recovered tenants land on
// the same rung the same history produces live.
void UpdateQos(TenantState& t, int64_t passes_run, int64_t failed,
               const FleetOptions& options) {
  for (int64_t i = 0; i < passes_run; ++i) {
    t.qos_outcomes[static_cast<size_t>(t.qos_next)] = i < failed ? 1 : 0;
    t.qos_next = (t.qos_next + 1) % options.qos_window;
    t.qos_count = std::min(t.qos_count + 1, options.qos_window);
  }
  if (t.qos_count < options.qos_min_passes) return;
  int64_t failures = 0;
  for (int64_t i = 0; i < t.qos_count; ++i) {
    failures += t.qos_outcomes[static_cast<size_t>(i)];
  }
  const double fraction =
      static_cast<double>(failures) / static_cast<double>(t.qos_count);
  QosRung next = QosRung::kHealthy;
  if (fraction >= options.reject_failure_fraction) {
    next = QosRung::kRejecting;
  } else if (fraction >= options.degrade_failure_fraction) {
    next = QosRung::kDegraded;
  }
  t.rung.store(static_cast<int>(next), std::memory_order_release);
}

}  // namespace

struct FleetServer::Impl {
  mutable std::mutex registry_mu;  // guards tenants map + next_id
  std::map<int64_t, std::shared_ptr<TenantState>> tenants;
  int64_t next_id = 1;

  std::mutex drain_mu;  // serializes Drain calls

  // FleetOptions::pass_deadline_seconds as a clock duration; max() when
  // the fleet has no deadline.
  std::chrono::steady_clock::duration pass_budget =
      std::chrono::steady_clock::duration::max();

  // Fleet accounting, exact whether or not TRIAD_METRICS is on. The queue
  // levels and pass totals are this fleet's alone; each event count also
  // feeds its `serve.*` registry counter.
  std::atomic<int64_t> queue_chunks{0};
  std::atomic<int64_t> queue_points{0};
  std::atomic<uint64_t> passes{0};
  std::atomic<uint64_t> failed_passes{0};
  EventCount submitted{"serve.submitted"};
  EventCount accepted{"serve.accepted"};
  EventCount degraded{"serve.degraded"};
  EventCount rejected{"serve.rejected"};
  EventCount batched_detects{"serve.batched_detects"};
  EventCount append_errors{"serve.append_errors"};
  EventCount wal_records{"serve.wal_records"};
  EventCount wal_failures{"serve.wal_failures"};
  EventCount snapshots{"serve.snapshots"};
  EventCount deadline_expired{"serve.deadline_expired_passes"};
  EventCount admission_alloc_failures{"serve.admission_alloc_failures"};

  // Snapshot writer lane (durable fleets only): the one thread that writes
  // tenant snapshots. `snapshot_queue` lists the tenants whose
  // `snapshot_pending` is filled, in hand-off order; a newer hand-off
  // replaces the pending state in place, so the queue holds each tenant at
  // most once and stays sorted by `snapshot_since`. Every hand-off takes a
  // ticket; all tickets <= `snapshot_resolved` are on disk or were
  // replaced by a state that is.
  std::mutex snapshot_mu;
  std::condition_variable snapshot_cv;          // wakes the lane
  std::condition_variable snapshot_flushed_cv;  // wakes FlushSnapshots
  std::deque<std::shared_ptr<TenantState>> snapshot_queue;
  uint64_t snapshot_tickets = 0;
  uint64_t snapshot_resolved = 0;
  Status snapshot_error;  // first failed write since the last flush
  bool snapshot_stop = false;
  std::thread snapshot_lane;

  void HandOffSnapshot(const std::shared_ptr<TenantState>& tenant);
  void RunSnapshotLane(const std::string& dir);
};

// Exports the tenant's durable state and hands it to the writer lane,
// replacing a state of the same tenant the lane has not taken yet. The
// caller holds the tenant's state_mu, so one tenant's hand-offs reach the
// lane in the order of the states they carry; with the lane the only
// writer, an older state can never overwrite a newer file.
void FleetServer::Impl::HandOffSnapshot(
    const std::shared_ptr<TenantState>& tenant) {
  TenantState& t = *tenant;
  TenantDurableState durable;
  durable.stream = t.stream.ExportState();
  durable.rung =
      static_cast<uint8_t>(t.rung.load(std::memory_order_acquire));
  durable.qos_outcomes = t.qos_outcomes;
  durable.qos_next = t.qos_next;
  durable.qos_count = t.qos_count;
  durable.chunks_applied_seq = t.chunks_applied_seq;
  {
    std::lock_guard<std::mutex> qlock(t.queue_mu);
    durable.probation_counter = t.probation_counter;
  }
  t.passes_at_last_snapshot = t.stream.passes() + t.stream.failed_passes();
  t.snapshot_failed = false;
  std::lock_guard<std::mutex> lock(snapshot_mu);
  ++snapshot_tickets;
  if (!t.snapshot_pending.has_value()) {
    t.snapshot_since = snapshot_tickets;
    snapshot_queue.push_back(tenant);
    snapshot_cv.notify_one();
  }
  t.snapshot_pending = std::move(durable);
}

// The lane's loop: takes the oldest pending tenant, writes its state with
// no lock held, records the outcome, until stopped with nothing pending.
void FleetServer::Impl::RunSnapshotLane(const std::string& dir) {
  std::unique_lock<std::mutex> lock(snapshot_mu);
  for (;;) {
    snapshot_cv.wait(
        lock, [this] { return snapshot_stop || !snapshot_queue.empty(); });
    if (snapshot_queue.empty()) return;
    std::shared_ptr<TenantState> tenant = std::move(snapshot_queue.front());
    snapshot_queue.pop_front();
    const TenantDurableState state = std::move(*tenant->snapshot_pending);
    tenant->snapshot_pending.reset();
    lock.unlock();

    Status written = Status::OK();
    try {
      if (g_test_hooks.before_snapshot_write != nullptr) {
        written = g_test_hooks.before_snapshot_write(tenant->id);
      }
      if (written.ok()) {
        trace::TraceSpan span("serve.snapshot");
        written = WriteTenantSnapshot(dir, tenant->id, state);
      }
    } catch (const std::exception& e) {
      written = Status::Internal(std::string("snapshot write threw: ") +
                                 e.what());
    }
    if (written.ok()) {
      snapshots.Add();
    } else {
      std::lock_guard<std::mutex> state_lock(tenant->state_mu);
      tenant->last_error = written;
      tenant->snapshot_failed = true;
    }

    lock.lock();
    if (!written.ok() && snapshot_error.ok()) snapshot_error = written;
    snapshot_resolved = snapshot_queue.empty()
                            ? snapshot_tickets
                            : snapshot_queue.front()->snapshot_since - 1;
    snapshot_flushed_cv.notify_all();
  }
}

FleetServer::FleetServer(FleetOptions options)
    : options_(options), impl_(new Impl) {
  TRIAD_CHECK_MSG(options_.max_tenants >= 1, "max_tenants must be >= 1");
  TRIAD_CHECK_MSG(options_.max_queue_chunks >= 1,
                  "max_queue_chunks must be >= 1");
  TRIAD_CHECK_MSG(options_.probation_interval >= 1,
                  "probation_interval must be >= 1");
  options_.qos_window = std::clamp<int64_t>(options_.qos_window, 1, 64);
  options_.qos_min_passes =
      std::clamp<int64_t>(options_.qos_min_passes, 1, options_.qos_window);
  // A budget the clock cannot represent means no deadline: converting it
  // would overflow (NaN and +inf fail one of the comparisons too).
  constexpr double kMaxBudgetSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::duration::max())
          .count();
  if (options_.pass_deadline_seconds > 0.0 &&
      options_.pass_deadline_seconds < kMaxBudgetSeconds) {
    impl_->pass_budget =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.pass_deadline_seconds));
  }
  if (!options_.durability.dir.empty()) {
    impl_->snapshot_lane = std::thread(
        [this] { impl_->RunSnapshotLane(options_.durability.dir); });
  }
}

FleetServer::~FleetServer() {
  if (impl_->snapshot_lane.joinable()) {
    // Write errors already sit in each tenant's last_error.
    (void)FlushSnapshots();
    {
      std::lock_guard<std::mutex> lock(impl_->snapshot_mu);
      impl_->snapshot_stop = true;
    }
    impl_->snapshot_cv.notify_all();
    impl_->snapshot_lane.join();
  }
  delete impl_;
}

namespace {

// The manifest row set for the current roster. Caller holds registry_mu.
FleetManifest ComposeManifest(
    int64_t next_id,
    const std::map<int64_t, std::shared_ptr<TenantState>>& tenants) {
  FleetManifest manifest;
  manifest.next_id = next_id;
  for (const auto& [id, tenant] : tenants) {
    TenantManifestEntry entry;
    entry.id = id;
    entry.model_key = tenant->model_key;
    entry.buffer_length = tenant->stream.buffer_length();
    entry.hop = tenant->stream.hop();
    manifest.tenants.push_back(std::move(entry));
  }
  return manifest;
}

}  // namespace

Result<int64_t> FleetServer::AddTenant(
    std::shared_ptr<const core::TriadDetector> detector,
    TenantOptions options) {
  if (detector == nullptr) {
    return Status::InvalidArgument("AddTenant: detector is null");
  }
  if (detector->window_length() <= 0) {
    return Status::FailedPrecondition(
        "AddTenant: detector is not fitted (call Fit or Load first)");
  }
  const bool durable = !options_.durability.dir.empty();
  if (durable && options.model_key.empty()) {
    return Status::InvalidArgument(
        "AddTenant: a durable fleet needs TenantOptions::model_key so "
        "Recover can re-resolve the detector");
  }
  auto tenant = std::make_shared<TenantState>(std::move(detector),
                                              options.streaming, options_);
  tenant->model_key = options.model_key;
  std::lock_guard<std::mutex> lock(impl_->registry_mu);
  if (static_cast<int64_t>(impl_->tenants.size()) >= options_.max_tenants) {
    return Status::OutOfRange("AddTenant: fleet is full (max_tenants = " +
                              std::to_string(options_.max_tenants) + ")");
  }
  const int64_t id = impl_->next_id;
  tenant->id = id;
  if (durable) {
    const std::string& root = options_.durability.dir;
    TRIAD_RETURN_NOT_OK(EnsureDir(root));
    TRIAD_RETURN_NOT_OK(EnsureDir(TenantDir(root, id)));
    TRIAD_ASSIGN_OR_RETURN(tenant->wal,
                           WalWriter::Open(TenantDir(root, id) + "/wal",
                                           options_.durability.fsync_wal));
  }
  impl_->tenants.emplace(id, tenant);
  impl_->next_id = id + 1;
  if (durable) {
    // Manifest after the roster change: a crash right here recovers the
    // tenant as empty (its WAL has no records yet), which is exactly what
    // it is. A manifest write *failure*, though, must unwind the whole
    // registration — an error return with the tenant still live would turn
    // the caller's natural retry into a duplicate tenant under a new id.
    const Status manifest = WriteManifest(
        options_.durability.dir,
        ComposeManifest(impl_->next_id, impl_->tenants));
    if (!manifest.ok()) {
      impl_->tenants.erase(id);
      impl_->next_id = id;  // registry_mu held throughout: id is unclaimed
      return manifest;
    }
  }
  return id;
}

Result<int64_t> FleetServer::AddTenantFromCheckpoint(
    ModelRegistry* registry, const std::string& checkpoint_path,
    TenantOptions options) {
  if (registry == nullptr) {
    return Status::InvalidArgument(
        "AddTenantFromCheckpoint: registry is null");
  }
  TRIAD_ASSIGN_OR_RETURN(auto detector,
                         registry->LoadCheckpoint(checkpoint_path));
  if (options.model_key.empty()) options.model_key = checkpoint_path;
  return AddTenant(std::move(detector), options);
}

Status FleetServer::RemoveTenant(int64_t id) {
  std::shared_ptr<TenantState> tenant;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    auto it = impl_->tenants.find(id);
    if (it == impl_->tenants.end()) {
      return Status::NotFound("RemoveTenant: no tenant " + std::to_string(id));
    }
    tenant = std::move(it->second);
    impl_->tenants.erase(it);
    if (!options_.durability.dir.empty()) {
      // Drop the tenant from the roster; its files stay on disk (recovery
      // is manifest-driven, so they are simply never consulted again).
      TRIAD_RETURN_NOT_OK(WriteManifest(
          options_.durability.dir,
          ComposeManifest(impl_->next_id, impl_->tenants)));
    }
  }
  // Return the tenant's undrained chunks to the fleet budget. A drain
  // holding a shared_ptr may still be scoring chunks it already claimed;
  // that pass completes against the detached tenant and is harmless.
  std::lock_guard<std::mutex> lock(tenant->queue_mu);
  impl_->queue_chunks.fetch_sub(static_cast<int64_t>(tenant->pending.size()),
                                std::memory_order_relaxed);
  impl_->queue_points.fetch_sub(tenant->pending_points,
                                std::memory_order_relaxed);
  tenant->pending.clear();
  tenant->pending_points = 0;
  return Status::OK();
}

Result<IngestStatus> FleetServer::Ingest(int64_t id,
                                         const std::vector<double>& points) {
  std::shared_ptr<TenantState> tenant;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    auto it = impl_->tenants.find(id);
    if (it == impl_->tenants.end()) {
      return Status::NotFound("Ingest: no tenant " + std::to_string(id));
    }
    tenant = it->second;
  }
  impl_->submitted.Add();

  const auto rung = static_cast<QosRung>(
      tenant->rung.load(std::memory_order_acquire));
  std::lock_guard<std::mutex> lock(tenant->queue_mu);
  // Verdict order documented on Ingest(); keep the two in sync.
  if (rung == QosRung::kRejecting) {
    const int64_t tick = tenant->probation_counter++;
    if (tick % options_.probation_interval != 0) {
      impl_->rejected.Add();
      return IngestStatus::kRejected;
    }
  }
  if (points.empty()) {
    // No-op, but the verdict still reflects the tenant's rung.
    if (rung == QosRung::kHealthy) {
      impl_->accepted.Add();
      return IngestStatus::kAccepted;
    }
    impl_->degraded.Add();
    return IngestStatus::kDegraded;
  }
  // Reserve the fleet queue slot atomically (check-then-add from racing
  // producers could overshoot the bound; reserve-then-verify cannot).
  const int64_t depth =
      impl_->queue_chunks.fetch_add(1, std::memory_order_relaxed) + 1;
  if (depth > options_.max_queue_chunks) {
    impl_->queue_chunks.fetch_sub(1, std::memory_order_relaxed);
    impl_->rejected.Add();
    return IngestStatus::kRejected;
  }
  if (tenant->pending_points + static_cast<int64_t>(points.size()) >
      tenant->max_pending_points) {
    impl_->queue_chunks.fetch_sub(1, std::memory_order_relaxed);
    impl_->rejected.Add();
    return IngestStatus::kRejected;
  }
  // Write-ahead: an admitted chunk hits the tenant's WAL (fsync'd) before
  // it enters the in-memory queue, so at every instant the WAL holds a
  // superset of what the queue ever held — a crash between the two loses
  // nothing (the chunk replays) and the reverse order would lose the chunk.
  uint64_t wal_tail_before = 0;
  bool logged_to_wal = false;
  if (tenant->wal.is_open()) {
    wal_tail_before = tenant->wal.tail_offset();
    const uint64_t seq = tenant->wal_next_seq + 1;
    const Status logged = tenant->wal.Append(seq, points.data(),
                                             points.size());
    if (!logged.ok()) {
      // Append repaired the log back to its previous boundary (or went
      // fail-closed); either way `seq` is unclaimed and the chunk is
      // simply not durable — reject it.
      impl_->queue_chunks.fetch_sub(1, std::memory_order_relaxed);
      impl_->wal_failures.Add();
      impl_->rejected.Add();
      return IngestStatus::kRejected;
    }
    tenant->wal_next_seq = seq;
    logged_to_wal = true;
  }
  try {
    if (g_test_hooks.admission_alloc_fail != nullptr &&
        g_test_hooks.admission_alloc_fail(id)) {
      throw std::bad_alloc();
    }
    tenant->pending_points += static_cast<int64_t>(points.size());
    tenant->pending.push_back(points);
  } catch (const std::bad_alloc&) {
    // Enqueue allocation failure: WAL-then-enqueue is atomic, so the
    // record just written is rolled back (durably) before the chunk is
    // rejected — a chunk the caller was told kRejected must never
    // resurface at recovery, or the caller's retry would double-apply it.
    // pending_points was not yet updated, so the ledger stays exact.
    if (logged_to_wal && tenant->wal.TruncateTo(wal_tail_before).ok()) {
      --tenant->wal_next_seq;
    }
    // If the rollback failed the WAL is fail-closed: the orphan record
    // stays, but no later record can follow it in this process, and every
    // subsequent Ingest rejects at the Append above — so the record can
    // be served at most once (by a recovery) while the caller's retries
    // keep failing, never twice.
    impl_->queue_chunks.fetch_sub(1, std::memory_order_relaxed);
    impl_->admission_alloc_failures.Add();
    impl_->rejected.Add();
    return IngestStatus::kRejected;
  }
  if (logged_to_wal) {
    // Counted only once the enqueue holds too: a rolled-back record was
    // never durable, and the wal_records == admitted-chunk ledger is what
    // the chaos suite audits.
    impl_->wal_records.Add();
  }
  impl_->queue_points.fetch_add(static_cast<int64_t>(points.size()),
                                std::memory_order_relaxed);
  if (rung == QosRung::kHealthy) {
    impl_->accepted.Add();
    return IngestStatus::kAccepted;
  }
  impl_->degraded.Add();
  return IngestStatus::kDegraded;
}

namespace {

// The work one drain claimed for one tenant: the chunks swapped out of its
// pending queue, in ingest order.
struct DrainItem {
  std::shared_ptr<TenantState> tenant;
  std::deque<std::vector<double>> chunks;
  int64_t chunk_count = 0;
  int64_t point_count = 0;
  int64_t passes_run = 0;  // clean + failed, filled in by the pass
  // WAL seq of the last claimed chunk: the applied watermark after this
  // slice (chunks apply in seq order, so claiming is contiguous).
  uint64_t claimed_seq = 0;
};

}  // namespace

Result<int64_t> FleetServer::Drain() {
  std::lock_guard<std::mutex> drain_lock(impl_->drain_mu);

  // Claim: swap every tenant's pending queue out from under its queue_mu.
  // Chunks ingested after this point wait for the next drain.
  std::vector<std::shared_ptr<TenantState>> tenants;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    tenants.reserve(impl_->tenants.size());
    for (auto& [id, tenant] : impl_->tenants) tenants.push_back(tenant);
  }
  std::vector<DrainItem> claimed;  // ready tenants, in roster order
  for (auto& tenant : tenants) {
    DrainItem item;
    {
      std::lock_guard<std::mutex> lock(tenant->queue_mu);
      if (tenant->pending.empty()) continue;
      item.chunks.swap(tenant->pending);
      item.point_count = tenant->pending_points;
      item.claimed_seq = tenant->wal_next_seq;
      tenant->pending_points = 0;
    }
    item.chunk_count = static_cast<int64_t>(item.chunks.size());
    item.tenant = tenant;
    claimed.push_back(std::move(item));
  }

  // Scoring one tenant's claimed chunks; runs with state_mu held. Updates
  // the QoS window from the pass-outcome deltas and recomputes the rung.
  // Fault boundary: everything that can go wrong in here — a pass blowing
  // its deadline, a hard Append error, even a thrown exception — is
  // absorbed per tenant, so one bad tenant can never skip the rest of the
  // drain.
  auto run_tenant = [&](DrainItem& item) {
    TenantState& t = *item.tenant;
    std::lock_guard<std::mutex> lock(t.state_mu);
    const int64_t passes_before = t.stream.passes();
    const int64_t failed_before = t.stream.failed_passes();
    // Chunk-level errors that are not pass outcomes (an injected fault)
    // still count against the QoS window as failures.
    int64_t error_outcomes = 0;
    const auto start = std::chrono::steady_clock::now();
    // One budget for the whole slice, visible (via the thread-local + pool
    // propagation) to every checkpoint inside Detect. A deadline past the
    // clock's range is none.
    const PassDeadline deadline =
        start < kNoPassDeadline - impl_->pass_budget
            ? start + impl_->pass_budget
            : kNoPassDeadline;
    ScopedPassDeadline scope(deadline);
    try {
      for (auto& chunk : item.chunks) {
        Status outcome = g_test_hooks.before_append != nullptr
                             ? g_test_hooks.before_append(t.id)
                             : Status::OK();
        if (outcome.ok()) outcome = t.stream.Append(chunk).status();
        if (!outcome.ok()) {
          ++error_outcomes;
          t.last_error = outcome;
          impl_->append_errors.Add();
          break;
        }
      }
    } catch (const std::exception& e) {
      ++error_outcomes;
      t.last_error = Status::Internal(std::string("tenant pass threw: ") +
                                      e.what());
      impl_->append_errors.Add();
    } catch (...) {
      ++error_outcomes;
      t.last_error = Status::Internal("tenant pass threw a non-exception");
      impl_->append_errors.Add();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      impl_->deadline_expired.Add();
    }
    // The claimed chunks are consumed even when some were dropped after a
    // hard error: advancing the watermark keeps recovery aligned with what
    // this fleet actually served (a replay must not resurrect chunks the
    // live fleet already gave up on).
    t.chunks_applied_seq = std::max(t.chunks_applied_seq, item.claimed_seq);
    const int64_t clean = t.stream.passes() - passes_before;
    const int64_t failed = t.stream.failed_passes() - failed_before;
    item.passes_run = clean + failed;
    impl_->passes.fetch_add(static_cast<uint64_t>(clean),
                            std::memory_order_relaxed);
    impl_->failed_passes.fetch_add(static_cast<uint64_t>(failed),
                                   std::memory_order_relaxed);
    // Slide the QoS window by the outcomes this drain produced — failed
    // passes plus chunk-level errors — then move the rung. This is how an
    // over-budget or hung tenant degrades: DeadlineExceeded feeds the same
    // ladder a sanitize rejection does.
    UpdateQos(t, item.passes_run + error_outcomes, failed + error_outcomes,
              options_);
  };

  // One task per tenant. A lone tenant's one-chunk batch runs inline on
  // this thread, so its pass's inner ParallelFors spread across the pool;
  // inside a task they run inline.
  ParallelFor(0, static_cast<int64_t>(claimed.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) run_tenant(claimed[i]);
              });
  int64_t total_passes = 0;
  int64_t total_chunks = 0;
  int64_t total_points = 0;
  for (const DrainItem& item : claimed) {
    total_passes += item.passes_run;
    total_chunks += item.chunk_count;
    total_points += item.point_count;
  }
  if (claimed.size() >= 2) {
    impl_->batched_detects.Add(static_cast<uint64_t>(total_passes));
  }
  impl_->queue_chunks.fetch_sub(total_chunks, std::memory_order_relaxed);
  impl_->queue_points.fetch_sub(total_points, std::memory_order_relaxed);

  // Snapshot cadence: a drained tenant that has run enough passes since
  // its last hand-off, or whose last write failed, hands its state to the
  // writer lane. The lane writes it atomically, so a crash mid-write keeps
  // the previous snapshot; the WAL is never truncated, so a snapshot that
  // lags only lengthens replay.
  if (!options_.durability.dir.empty()) {
    for (DrainItem& item : claimed) {
      TenantState& t = *item.tenant;
      std::lock_guard<std::mutex> lock(t.state_mu);
      const int64_t lifetime = t.stream.passes() + t.stream.failed_passes();
      if (!t.snapshot_failed &&
          lifetime - t.passes_at_last_snapshot <
              options_.durability.snapshot_every_passes) {
        continue;
      }
      impl_->HandOffSnapshot(item.tenant);
    }
  }
  return total_passes;
}

Status FleetServer::FlushSnapshots() {
  std::unique_lock<std::mutex> lock(impl_->snapshot_mu);
  const uint64_t target = impl_->snapshot_tickets;
  impl_->snapshot_flushed_cv.wait(
      lock, [&] { return impl_->snapshot_resolved >= target; });
  return std::exchange(impl_->snapshot_error, Status::OK());
}

Status FleetServer::Checkpoint() {
  if (options_.durability.dir.empty()) {
    return Status::FailedPrecondition(
        "Checkpoint: fleet has no durability.dir");
  }
  std::vector<std::shared_ptr<TenantState>> tenants;
  FleetManifest manifest;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    for (auto& [id, tenant] : impl_->tenants) tenants.push_back(tenant);
    manifest = ComposeManifest(impl_->next_id, impl_->tenants);
  }
  for (auto& tenant : tenants) {
    std::lock_guard<std::mutex> lock(tenant->state_mu);
    impl_->HandOffSnapshot(tenant);
  }
  TRIAD_RETURN_NOT_OK(FlushSnapshots());
  return WriteManifest(options_.durability.dir, manifest);
}

Result<RecoveryReport> FleetServer::Recover(ModelRegistry* registry) {
  if (options_.durability.dir.empty()) {
    return Status::FailedPrecondition("Recover: fleet has no durability.dir");
  }
  if (registry == nullptr) {
    return Status::InvalidArgument("Recover: registry is null");
  }
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    if (!impl_->tenants.empty()) {
      return Status::FailedPrecondition(
          "Recover: must run on a fresh fleet (tenants already registered)");
    }
  }
  // Registry-only instruments: recovery outcomes have no FleetStats field.
  static metrics::Counter* quarantined =
      metrics::Registry::Global().counter("serve.quarantined_tenants");
  static metrics::Histogram* recovery_seconds =
      metrics::Registry::Global().histogram("serve.recovery_seconds");
  Timer timer;
  const std::string& root = options_.durability.dir;
  TRIAD_ASSIGN_OR_RETURN(FleetManifest manifest, ReadManifest(root));
  RecoveryReport report;

  // Rebuilds one tenant; returns null + `why` to quarantine it. Failures
  // are strictly per tenant — nothing in here touches another tenant's
  // files or the fleet maps.
  const auto recover_tenant =
      [&](const TenantManifestEntry& entry,
          Status* why) -> std::shared_ptr<TenantState> {
    Result<std::shared_ptr<const core::TriadDetector>> model =
        registry->Get(entry.model_key);
    if (!model.ok()) model = registry->LoadCheckpoint(entry.model_key);
    if (!model.ok()) {
      *why = model.status();
      return nullptr;
    }
    core::StreamingOptions streaming;
    streaming.buffer_length = entry.buffer_length;
    streaming.hop = entry.hop;
    auto tenant = std::make_shared<TenantState>(std::move(model).value(),
                                                streaming, options_);
    tenant->id = entry.id;
    tenant->model_key = entry.model_key;

    // Snapshot: restored when its checksum holds; otherwise recovery falls
    // back to replaying the whole WAL from an empty stream (the WAL is
    // never truncated at snapshot time precisely so this path exists).
    // "No snapshot yet" (IoError) is the normal state of a young tenant.
    Result<TenantDurableState> snap = ReadTenantSnapshot(root, entry.id);
    if (snap.ok()) {
      const TenantDurableState& durable = snap.value();
      const Status restored = tenant->stream.RestoreState(durable.stream);
      if (!restored.ok()) {
        // The checksum held but the state could not have been produced by
        // ExportState: writer-side corruption. Never half-recover.
        *why = Status::DataLoss("snapshot decodes but fails validation: " +
                                restored.message());
        return nullptr;
      }
      tenant->rung.store(static_cast<int>(durable.rung),
                         std::memory_order_release);
      tenant->qos_outcomes = durable.qos_outcomes;
      tenant->qos_next = durable.qos_next;
      tenant->qos_count = durable.qos_count;
      // Only the counter's phase is ever read (Ingest), so a stored value
      // near INT64_MAX cannot overflow the next increment.
      tenant->probation_counter =
          durable.probation_counter % options_.probation_interval;
      tenant->chunks_applied_seq = durable.chunks_applied_seq;
    } else if (snap.status().code() != StatusCode::kIoError) {
      ++report.snapshot_fallbacks;
    }

    const std::string wal_path = TenantDir(root, entry.id) + "/wal";
    Result<WalReplay> wal = ReadWal(wal_path);
    if (!wal.ok()) {
      *why = wal.status();
      return nullptr;
    }
    WalReplay& replay = wal.value();
    if (replay.outcome == io::RecordScanOutcome::kCorrupt) {
      *why = Status::DataLoss("tenant WAL has an interior corrupt record");
      return nullptr;
    }
    if (replay.outcome == io::RecordScanOutcome::kTornTail) {
      // The crash artifact: drop the partial record so future appends
      // start at an intact boundary.
      ++report.torn_wal_tails;
      if (::truncate(wal_path.c_str(),
                     static_cast<off_t>(replay.valid_bytes)) != 0) {
        *why = Status::IoError("cannot truncate torn WAL tail");
        return nullptr;
      }
    }

    // Replay everything after the snapshot watermark through the ordinary
    // scoring path. Chunking invariance + identical chunks = identical
    // timeline (tests/serve_chaos_test.cc).
    uint64_t last_seq = tenant->chunks_applied_seq;
    for (const WalChunk& chunk : replay.chunks) {
      last_seq = std::max(last_seq, chunk.seq);
      if (chunk.seq <= tenant->chunks_applied_seq) continue;
      const int64_t passes_before = tenant->stream.passes();
      const int64_t failed_before = tenant->stream.failed_passes();
      auto events = tenant->stream.Append(chunk.points);
      if (!events.ok()) {
        *why = events.status();
        return nullptr;
      }
      // Replay feeds the ladder pass outcomes only: chunk-level error
      // outcomes the live drain also counted (deadline expiries, retry
      // exhaustion) are not persisted in the WAL, so under full-WAL
      // replay the rung is an approximation while the alarm timeline
      // stays bit-identical (see durability.h's fidelity caveat).
      UpdateQos(*tenant, tenant->stream.passes() - passes_before +
                             tenant->stream.failed_passes() - failed_before,
                tenant->stream.failed_passes() - failed_before, options_);
      tenant->chunks_applied_seq = chunk.seq;
      ++report.chunks_replayed;
      report.points_replayed += static_cast<int64_t>(chunk.points.size());
    }
    tenant->wal_next_seq = last_seq;

    Result<WalWriter> writer =
        WalWriter::Open(wal_path, options_.durability.fsync_wal);
    if (!writer.ok()) {
      *why = writer.status();
      return nullptr;
    }
    tenant->wal = std::move(writer).value();
    return tenant;
  };

  for (const TenantManifestEntry& entry : manifest.tenants) {
    Status why = Status::OK();
    std::shared_ptr<TenantState> tenant = recover_tenant(entry, &why);
    if (tenant == nullptr) {
      report.quarantined.push_back({entry.id, why});
      quarantined->Increment();
      continue;
    }
    ++report.tenants_recovered;
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    impl_->tenants.emplace(entry.id, std::move(tenant));
  }
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    impl_->next_id = std::max(impl_->next_id, manifest.next_id);
  }
  report.recovery_seconds = timer.ElapsedSeconds();
  recovery_seconds->Observe(report.recovery_seconds);
  return report;
}

Result<TenantSnapshot> FleetServer::Tenant(int64_t id) const {
  std::shared_ptr<TenantState> tenant;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    auto it = impl_->tenants.find(id);
    if (it == impl_->tenants.end()) {
      return Status::NotFound("Tenant: no tenant " + std::to_string(id));
    }
    tenant = it->second;
  }
  TenantSnapshot snap;
  snap.id = tenant->id;
  snap.rung = static_cast<QosRung>(tenant->rung.load(std::memory_order_acquire));
  {
    std::lock_guard<std::mutex> lock(tenant->state_mu);
    snap.stream_uid = tenant->stream.stream_uid();
    snap.total_points = tenant->stream.total_points();
    snap.passes = tenant->stream.passes();
    snap.failed_passes = tenant->stream.failed_passes();
    snap.alarms = tenant->stream.alarms();
    snap.gaps = tenant->stream.gaps();
    snap.last_error = tenant->last_error;
  }
  {
    std::lock_guard<std::mutex> lock(tenant->queue_mu);
    snap.pending_points = tenant->pending_points;
  }
  return snap;
}

FleetStats FleetServer::stats() const {
  FleetStats s;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mu);
    s.tenants = static_cast<int64_t>(impl_->tenants.size());
  }
  s.queue_chunks = impl_->queue_chunks.load(std::memory_order_relaxed);
  s.queue_points = impl_->queue_points.load(std::memory_order_relaxed);
  s.passes = impl_->passes.load(std::memory_order_relaxed);
  s.failed_passes = impl_->failed_passes.load(std::memory_order_relaxed);
  s.submitted = impl_->submitted.value();
  s.accepted = impl_->accepted.value();
  s.degraded = impl_->degraded.value();
  s.rejected = impl_->rejected.value();
  s.batched_detects = impl_->batched_detects.value();
  s.append_errors = impl_->append_errors.value();
  s.wal_records = impl_->wal_records.value();
  s.wal_failures = impl_->wal_failures.value();
  s.snapshots = impl_->snapshots.value();
  s.deadline_expired_passes = impl_->deadline_expired.value();
  s.admission_alloc_failures = impl_->admission_alloc_failures.value();
  return s;
}

}  // namespace triad::serve
