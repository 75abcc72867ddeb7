#ifndef TRIAD_SERVE_DURABILITY_H_
#define TRIAD_SERVE_DURABILITY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "core/streaming.h"

namespace triad::serve {

/// \file On-disk formats for the crash-safe fleet (ARCHITECTURE.md §10).
///
/// A durable fleet keeps, under one root directory:
///
///   <root>/manifest             checksummed blob: the tenant roster
///   <root>/tenant_<id>/snapshot checksummed blob: resumable tenant state
///   <root>/tenant_<id>/wal      framed records: every admitted chunk
///
/// The recovery contract: *WAL before queue*. Ingest appends an admitted
/// chunk to the tenant's WAL (fsync'd) before it ever enters the in-memory
/// queue, and a snapshot records the WAL sequence number up to which its
/// stream state already contains the chunks. FleetServer::Recover therefore
/// rebuilds each tenant as snapshot-state + replay of WAL records after the
/// snapshot's sequence — and because StreamingTriad is chunking-invariant
/// and replay uses the exact admitted chunks, the recovered alarm timeline
/// is bit-identical to an uninterrupted run's.
///
/// Failure taxonomy (enforced by tests/serve_chaos_test.cc):
///  * torn WAL tail — the expected artifact of a crash mid-append: the
///    partial record is dropped and the intact prefix replays;
///  * corrupt WAL interior / snapshot that fails validation — bit rot, not
///    a crash: the tenant is quarantined, never half-recovered;
///  * corrupt snapshot checksum — recovery falls back to replaying the
///    whole WAL from an empty stream (slower, still bit-identical), since
///    the WAL is never truncated at snapshot time;
///  * corrupt manifest — nothing can be recovered; Recover returns the
///    DataLoss.
///
/// Fidelity caveat: "bit-identical" is a statement about the *alarm
/// timeline*. The QoS window is rebuilt at replay from pass outcomes
/// alone — chunk-level error outcomes the live fleet fed into it (append
/// errors) are not persisted in the WAL — so a tenant recovered via
/// full-WAL replay can land on a different rung/probation position than
/// the pre-crash fleet held. A snapshot restores the exact ladder
/// position as of its watermark; only the replayed tail is subject to the
/// caveat.

/// \brief Durability knobs, embedded in FleetOptions.
struct DurabilityOptions {
  /// Root directory for manifest/snapshots/WALs. Empty = durability off
  /// (the fleet behaves exactly as before this layer existed).
  std::string dir;
  /// A tenant is re-snapshotted once it has run at least this many passes
  /// (clean + failed) since its last snapshot. The Drain that crosses the
  /// threshold hands the tenant's state to the fleet's snapshot writer
  /// lane, which writes it off the verdict path; Checkpoint() forces a
  /// snapshot of every tenant and waits for the writes.
  int64_t snapshot_every_passes = 8;
  /// fsync the WAL after every appended record. On by default — turning it
  /// off trades the crash-recovery guarantee for ingest throughput.
  bool fsync_wal = true;
};

/// \brief Everything a tenant snapshot persists beyond the stream itself:
/// the QoS ladder position (so admission behaviour survives a restart) and
/// the WAL watermark that makes replay idempotent.
struct TenantDurableState {
  core::StreamingState stream;
  uint8_t rung = 0;  ///< QosRung as stored
  std::array<uint8_t, 64> qos_outcomes{};
  int64_t qos_next = 0;
  int64_t qos_count = 0;
  int64_t probation_counter = 0;
  /// WAL records with seq <= this are already reflected in `stream`;
  /// recovery replays strictly greater sequences.
  uint64_t chunks_applied_seq = 0;
};

/// \brief One tenant's row in the fleet manifest — enough to rebuild the
/// TenantState shell before its snapshot/WAL are consulted.
///
/// On disk a row is `[i64 id][u64 key length][key][i64 buffer_length]
/// [i64 hop][u8 retired]`. The last byte once selected a memo-less stream;
/// every stream now runs the memoized pass, so it is written as 1 and
/// ignored on read, and manifests written before and after keep one layout.
struct TenantManifestEntry {
  int64_t id = 0;
  /// ModelRegistry key (a checkpoint path for warm-started tenants).
  std::string model_key;
  /// Resolved streaming geometry (not the 0-means-default spellings).
  int64_t buffer_length = 0;
  int64_t hop = 0;
};

struct FleetManifest {
  int64_t next_id = 1;
  std::vector<TenantManifestEntry> tenants;
};

/// `<root>/tenant_<id>` (no trailing slash).
std::string TenantDir(const std::string& root, int64_t id);

/// Creates `dir` if missing (parents must exist). OK when already present.
Status EnsureDir(const std::string& dir);

Status WriteManifest(const std::string& root, const FleetManifest& manifest);
/// IoError when no manifest exists; DataLoss when it fails its checksum or
/// decodes inconsistently.
Result<FleetManifest> ReadManifest(const std::string& root);

Status WriteTenantSnapshot(const std::string& root, int64_t id,
                           const TenantDurableState& state);
/// IoError when the tenant has no snapshot yet (recover from WAL alone);
/// DataLoss when the snapshot is torn or bit-flipped, or when a QoS field
/// is out of range (rung past kRejecting, a window index or count outside
/// the 64 outcome slots, an outcome other than 0/1, a negative probation
/// counter).
Result<TenantDurableState> ReadTenantSnapshot(const std::string& root,
                                              int64_t id);

/// \brief Append-only writer for one tenant's chunk WAL.
///
/// Each record is `io::AppendRecord`-framed; the payload is
/// `[u64 seq][u64 n][n doubles]`. Appends are written whole and (by
/// default) fsync'd before returning, so after a crash the file is a clean
/// prefix of admitted chunks plus at most one torn tail.
///
/// Invariant: the log always ends at an intact record boundary while the
/// writer lives. A failed append repairs the file in place (ftruncate back
/// to the pre-append boundary, then fsync so the truncation is durable)
/// before reporting Unavailable — so a transient I/O error never leaves
/// torn bytes for the *next* append to bury, and never leaves an
/// unacknowledged record whose seq was not claimed. If the repair itself
/// fails the writer goes **broken** (fail-closed): every later Append
/// returns a permanent Internal error and the file is left for crash
/// recovery to tidy, exactly as if the process had died at the fault.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending (created if missing).
  static Result<WalWriter> Open(const std::string& path, bool fsync_each);

  bool is_open() const { return fd_ >= 0; }
  bool broken() const { return broken_; }

  /// Byte offset of the log's end — always a record boundary. Capture it
  /// before an Append to be able to TruncateTo() that record away.
  uint64_t tail_offset() const { return tail_; }

  /// Appends one framed chunk record. Unavailable on a write/fsync failure
  /// (the log was repaired back to its previous boundary, so the caller
  /// may retry with the same seq); Internal once the writer is broken.
  Status Append(uint64_t seq, const double* points, size_t count);

  /// Rolls the log back so it ends exactly at `offset` (a boundary
  /// previously returned by tail_offset()), durably. Used to undo the last
  /// record when the operation it logged could not be completed. On
  /// failure the writer goes broken and the record stays.
  Status TruncateTo(uint64_t offset);

  void Close();

 private:
  int fd_ = -1;
  bool fsync_each_ = true;
  bool broken_ = false;
  uint64_t tail_ = 0;
};

/// One decoded WAL record.
struct WalChunk {
  uint64_t seq = 0;
  std::vector<double> points;
};

struct WalReplay {
  std::vector<WalChunk> chunks;  ///< the valid prefix, in append order
  io::RecordScanOutcome outcome = io::RecordScanOutcome::kClean;
  int64_t valid_bytes = 0;  ///< where a torn tail may be truncated away
};

/// Reads and scans a tenant WAL. A missing file is an empty clean replay
/// (a tenant that never ingested durably). Framing corruption is reported
/// through `outcome`, never as an error; a record that frames correctly
/// but decodes inconsistently (impossible lengths, non-monotonic seq) is
/// reported as kCorrupt.
Result<WalReplay> ReadWal(const std::string& path);

}  // namespace triad::serve

#endif  // TRIAD_SERVE_DURABILITY_H_
