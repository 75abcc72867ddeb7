#include "serve/durability.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.h"

namespace triad::serve {
namespace {

constexpr char kManifestMagic[4] = {'T', 'R', 'M', 'F'};
constexpr uint32_t kManifestVersion = 1;
constexpr char kSnapshotMagic[4] = {'T', 'R', 'S', 'N'};
constexpr uint32_t kSnapshotVersion = 1;
constexpr uint8_t kMaxRung = 2;  // QosRung::kRejecting
// Gaps are stored as their raw (begin, end) pairs.
static_assert(sizeof(core::TimelineGap) == 2 * sizeof(int64_t));

}  // namespace

std::string TenantDir(const std::string& root, int64_t id) {
  return root + "/tenant_" + std::to_string(id);
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IoError("mkdir " + dir + " failed: " + std::strerror(errno));
}

Status WriteManifest(const std::string& root, const FleetManifest& manifest) {
  std::string payload;
  io::ByteWriter w(&payload);
  w.Put(manifest.next_id);
  w.Put(static_cast<uint64_t>(manifest.tenants.size()));
  for (const TenantManifestEntry& t : manifest.tenants) {
    w.Put(t.id);
    w.Put(static_cast<uint64_t>(t.model_key.size()));
    w.PutBytes(t.model_key);
    w.Put(t.buffer_length);
    w.Put(t.hop);
    // The retired memo-switch slot; always 1 (see TenantManifestEntry).
    w.Put(uint8_t{1});
  }
  return io::WriteChecksummedFile(root + "/manifest", kManifestMagic,
                                  kManifestVersion, payload);
}

Result<FleetManifest> ReadManifest(const std::string& root) {
  uint32_t version = 0;
  TRIAD_ASSIGN_OR_RETURN(
      std::string payload,
      io::ReadChecksummedFile(root + "/manifest", kManifestMagic, &version));
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version");
  }
  // The CRC already vouched for the bytes; a decode inconsistency past it
  // means the writer was broken, which is still data loss to the reader.
  io::ByteReader r(payload);
  FleetManifest manifest;
  manifest.next_id = r.Get<int64_t>();
  const auto count = r.Get<uint64_t>();
  // Entries are appended as they decode, so a hostile count stops at the
  // first short read instead of sizing the roster.
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    TenantManifestEntry t;
    t.id = r.Get<int64_t>();
    t.model_key = r.GetBytes(r.Get<uint64_t>());
    t.buffer_length = r.Get<int64_t>();
    t.hop = r.Get<int64_t>();
    r.Get<uint8_t>();  // the retired memo-switch slot
    manifest.tenants.push_back(std::move(t));
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::DataLoss("manifest decodes inconsistently");
  }
  return manifest;
}

Status WriteTenantSnapshot(const std::string& root, int64_t id,
                           const TenantDurableState& state) {
  const core::StreamingState& s = state.stream;
  std::string payload;
  payload.reserve(128 + s.buffer.size() * sizeof(double) + s.alarms.size());
  io::ByteWriter w(&payload);
  w.Put(state.chunks_applied_seq);
  w.Put(state.rung);
  w.Put(state.qos_next);
  w.Put(state.qos_count);
  w.Put(state.probation_counter);
  w.Put(state.qos_outcomes);
  w.Put(s.total_points);
  w.Put(s.passes);
  w.Put(s.failed_passes);
  w.Put(s.since_last_pass);
  w.Put(s.buffer_global_start);
  w.Put(static_cast<uint64_t>(s.buffer.size()));
  w.PutArray(s.buffer.data(), s.buffer.size());
  // The timeline is 0/1; one byte per point keeps snapshots 4x smaller
  // than the in-memory std::vector<int>.
  w.Put(static_cast<uint64_t>(s.alarms.size()));
  for (int a : s.alarms) w.Put(static_cast<uint8_t>(a != 0 ? 1 : 0));
  w.Put(static_cast<uint64_t>(s.gaps.size()));
  w.PutArray(s.gaps.data(), s.gaps.size());
  return io::WriteChecksummedFile(TenantDir(root, id) + "/snapshot",
                                  kSnapshotMagic, kSnapshotVersion, payload);
}

Result<TenantDurableState> ReadTenantSnapshot(const std::string& root,
                                              int64_t id) {
  uint32_t version = 0;
  TRIAD_ASSIGN_OR_RETURN(
      std::string payload,
      io::ReadChecksummedFile(TenantDir(root, id) + "/snapshot",
                              kSnapshotMagic, &version));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  // A CRC-valid but inconsistent count must come back DataLoss like any
  // other decode failure, not throw std::bad_alloc out of Recover (which
  // quarantines per tenant, not per process): the reader checks every count
  // against the bytes left before anything is sized from it.
  io::ByteReader r(payload);
  TenantDurableState state;
  state.chunks_applied_seq = r.Get<uint64_t>();
  state.rung = r.Get<uint8_t>();
  state.qos_next = r.Get<int64_t>();
  state.qos_count = r.Get<int64_t>();
  state.probation_counter = r.Get<int64_t>();
  r.Get(&state.qos_outcomes);
  core::StreamingState& s = state.stream;
  s.total_points = r.Get<int64_t>();
  s.passes = r.Get<int64_t>();
  s.failed_passes = r.Get<int64_t>();
  s.since_last_pass = r.Get<int64_t>();
  s.buffer_global_start = r.Get<int64_t>();
  r.GetArray(r.Get<uint64_t>(), &s.buffer);
  const std::string_view alarms = r.GetBytes(r.Get<uint64_t>());
  s.alarms.reserve(alarms.size());
  for (char a : alarms) s.alarms.push_back(a != 0 ? 1 : 0);
  r.GetArray(r.Get<uint64_t>(), &s.gaps);
  // The QoS fields index the tenant's outcome window, so out-of-range
  // values are as corrupt as a short payload.
  const auto slots = static_cast<int64_t>(state.qos_outcomes.size());
  const bool qos_ok =
      state.rung <= kMaxRung && state.qos_next >= 0 &&
      state.qos_next < slots && state.qos_count >= 0 &&
      state.qos_count <= slots && state.probation_counter >= 0 &&
      std::all_of(state.qos_outcomes.begin(), state.qos_outcomes.end(),
                  [](uint8_t outcome) { return outcome <= 1; });
  if (!r.ok() || r.remaining() != 0 || !qos_ok) {
    return Status::DataLoss("snapshot decodes inconsistently");
  }
  return state;
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      fsync_each_(other.fsync_each_),
      broken_(other.broken_),
      tail_(other.tail_) {
  other.fd_ = -1;
  other.broken_ = false;
  other.tail_ = 0;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    fsync_each_ = other.fsync_each_;
    broken_ = other.broken_;
    tail_ = other.tail_;
    other.fd_ = -1;
    other.broken_ = false;
    other.tail_ = 0;
  }
  return *this;
}

Result<WalWriter> WalWriter::Open(const std::string& path, bool fsync_each) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot seek WAL " + path + ": " +
                           std::strerror(err));
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.fsync_each_ = fsync_each;
  writer.tail_ = static_cast<uint64_t>(end);
  return writer;
}

Status WalWriter::TruncateTo(uint64_t offset) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL is not open");
  if (broken_) return Status::Internal("WAL is broken (earlier repair failed)");
  if (offset > tail_) {
    return Status::InvalidArgument("WAL TruncateTo past the tail");
  }
  // The fsync after ftruncate makes the rollback itself durable: without
  // it a crash could resurrect the truncated record even though this call
  // reported it gone.
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0 ||
      (fsync_each_ && ::fsync(fd_) != 0)) {
    broken_ = true;
    return Status::Internal(std::string("WAL rollback failed: ") +
                            std::strerror(errno) +
                            " — WAL is now fail-closed");
  }
  tail_ = offset;
  return Status::OK();
}

Status WalWriter::Append(uint64_t seq, const double* points, size_t count) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL is not open");
  if (broken_) {
    // Permanent: appending after a failed repair could follow torn bytes
    // or duplicate a seq that may already be durable.
    return Status::Internal("WAL is broken (earlier repair failed)");
  }
  std::string payload;
  payload.reserve(2 * sizeof(uint64_t) + count * sizeof(double));
  io::ByteWriter w(&payload);
  w.Put(seq);
  w.Put(static_cast<uint64_t>(count));
  w.PutArray(points, count);
  std::string record;
  io::AppendRecord(&record, payload);
  const uint64_t start = tail_;
  // On any failure below, repair the file back to `start` so the log ends
  // at an intact boundary and `seq` is provably not on disk; only then is
  // the error retryable. A failed repair marks the writer broken instead.
  const auto fail = [&](const char* what) -> Status {
    const std::string why = std::string(what) + std::strerror(errno);
    const Status repaired = TruncateTo(start);
    if (!repaired.ok()) {
      return Status::Internal(why + "; " + repaired.message());
    }
    return Status::Unavailable(why);
  };
  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("WAL append failed: ");
    }
    written += static_cast<size_t>(n);
  }
  if (fsync_each_ && ::fsync(fd_) != 0) {
    // The record is fully written but its durability is unknown; rolling
    // it back (durably) resolves the ambiguity — the seq stays unclaimed.
    return fail("WAL fsync failed: ");
  }
  tail_ = start + record.size();
  return Status::OK();
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WalReplay> ReadWal(const std::string& path) {
  WalReplay replay;
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 && errno == ENOENT) {
    return replay;  // no WAL yet: empty clean replay
  }
  TRIAD_ASSIGN_OR_RETURN(std::string bytes, io::ReadFileBytes(path));
  io::RecordScan scan = io::ScanRecords(bytes);
  replay.outcome = scan.outcome;
  replay.valid_bytes = scan.valid_bytes;
  uint64_t last_seq = 0;
  for (const std::string& record : scan.records) {
    io::ByteReader r(record);
    WalChunk chunk;
    chunk.seq = r.Get<uint64_t>();
    r.GetArray(r.Get<uint64_t>(), &chunk.points);
    if (!r.ok() || r.remaining() != 0 || chunk.seq <= last_seq) {
      // Framed and checksummed yet nonsensical: the writer (or the disk,
      // in a way CRC missed) lied. Treat like interior corruption.
      replay.outcome = io::RecordScanOutcome::kCorrupt;
      return replay;
    }
    last_seq = chunk.seq;
    replay.chunks.push_back(std::move(chunk));
  }
  return replay;
}

}  // namespace triad::serve
