#include "common/durable_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/bytes.h"

namespace triad::io {
namespace {

// Reflected CRC-32 table for the IEEE 802.3 polynomial 0xEDB88320,
// generated once at first use.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// fsync the directory containing `path` so a rename into it is durable.
// Best-effort: some filesystems refuse O_RDONLY directory fsync; the
// rename itself is still atomic without it.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("write failed for " + tmp + ": " + err);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync failed for " + tmp + ": " + err);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           err);
  }
  SyncParentDir(path);
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed for " + path);
  return bytes;
}

void AppendRecord(std::string* out, std::string_view payload) {
  ByteWriter w(out);
  w.Put(static_cast<uint32_t>(payload.size()));
  w.Put(Crc32(payload.data(), payload.size()));
  w.PutBytes(payload);
}

const char* ToString(RecordScanOutcome outcome) {
  switch (outcome) {
    case RecordScanOutcome::kClean:
      return "clean";
    case RecordScanOutcome::kTornTail:
      return "torn-tail";
    case RecordScanOutcome::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

RecordScan ScanRecords(std::string_view bytes) {
  RecordScan scan;
  ByteReader r(bytes);
  while (r.remaining() > 0) {
    const auto len = r.Get<uint32_t>();
    const auto crc = r.Get<uint32_t>();
    const std::string_view payload = r.GetBytes(len);
    if (!r.ok()) {
      // Fewer bytes than the header promises: the append was cut short.
      scan.outcome = RecordScanOutcome::kTornTail;
      return scan;
    }
    if (Crc32(payload.data(), payload.size()) != crc) {
      // The record is fully present but its bytes changed after the write:
      // that is corruption, not a crash artifact.
      scan.outcome = RecordScanOutcome::kCorrupt;
      return scan;
    }
    scan.records.emplace_back(payload);
    scan.valid_bytes = static_cast<int64_t>(r.position());
  }
  scan.outcome = RecordScanOutcome::kClean;
  return scan;
}

Status WriteChecksummedFile(const std::string& path, const char magic[4],
                            uint32_t version, std::string_view payload) {
  std::string bytes;
  bytes.reserve(payload.size() + 20);
  ByteWriter w(&bytes);
  w.PutBytes(std::string_view(magic, 4));
  w.Put(version);
  w.Put(Crc32(payload.data(), payload.size()));
  w.Put(static_cast<uint64_t>(payload.size()));
  w.PutBytes(payload);
  return AtomicWriteFile(path, bytes);
}

Result<std::string> ReadChecksummedFile(const std::string& path,
                                        const char magic[4],
                                        uint32_t* version_out) {
  TRIAD_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  // The reader would fail a short header too; testing the size first also
  // keeps g++ 12 from a false -Wmaybe-uninitialized on a short string.
  constexpr size_t kHeader = 4 + 2 * sizeof(uint32_t) + sizeof(uint64_t);
  ByteReader r(bytes);
  if (bytes.size() < kHeader || r.GetBytes(4) != std::string_view(magic, 4)) {
    return Status::DataLoss("bad header in " + path);
  }
  const auto version = r.Get<uint32_t>();
  const auto crc = r.Get<uint32_t>();
  const auto len = r.Get<uint64_t>();
  const std::string_view payload = r.GetBytes(len);
  if (!r.ok() || r.remaining() != 0) {
    return Status::DataLoss("truncated payload in " + path);
  }
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::DataLoss("checksum mismatch in " + path);
  }
  if (version_out != nullptr) *version_out = version;
  return std::string(payload);
}

}  // namespace triad::io
