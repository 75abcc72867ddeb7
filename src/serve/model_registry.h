#ifndef TRIAD_SERVE_MODEL_REGISTRY_H_
#define TRIAD_SERVE_MODEL_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/detector.h"

namespace triad::serve {

/// \brief Warm-start registry of fitted detectors shared across tenants
/// (ARCHITECTURE.md §9).
///
/// A fleet of thousands of tenants typically serves a handful of distinct
/// models: the registry loads each v2 checkpoint once (core::
/// TriadDetector::Load) and hands every tenant a shared_ptr to the same
/// immutable detector. Sharing is safe by the detector's own contract — a
/// fitted TriadDetector is const during Detect, and its nearest-window
/// index / the process-global FFT plan cache are built from data the
/// shared tenants have in common (the training series / the transform
/// size), so no per-tenant state lives in the detector. Per-tenant
/// mutable state (StreamingTriad buffer + DetectMemo) stays in the
/// FleetServer's tenant entry and is never shared (see
/// DetectMemo::BindStream).
///
/// Thread-safe: loads and lookups take an internal mutex; returned
/// detectors are immutable and live as long as any tenant holds them.
/// Cache effectiveness is exported as `serve.model_loads` /
/// `serve.model_hits`.
class ModelRegistry {
 public:
  ModelRegistry();
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The detector for `path`: loaded from the checkpoint on first request
  /// (IoError/InvalidArgument propagate), shared on every later one.
  ///
  /// Corrupt-state quarantine (ARCHITECTURE.md §10): a checkpoint whose
  /// CRC fails (DataLoss from TriadDetector::Load) is remembered and every
  /// later load of the same path fails immediately with DataLoss — a
  /// bit-flipped file must not be re-read per tenant in the hope it heals.
  /// Transient failures (IoError: missing file, unreadable disk) are NOT
  /// quarantined and retry naturally on the next call.
  Result<std::shared_ptr<const core::TriadDetector>> LoadCheckpoint(
      const std::string& path);

  /// Paths quarantined by LoadCheckpoint, in sorted order.
  std::vector<std::string> quarantined() const;

  /// Registers an already-fitted detector under a caller-chosen key (no
  /// file round trip — tests, benches, and in-process training flows).
  /// Re-registering a key replaces the entry; tenants holding the old
  /// detector keep it alive until they are removed.
  std::shared_ptr<const core::TriadDetector> Register(
      const std::string& key, core::TriadDetector detector);

  /// The detector registered/loaded under `key`, or NotFound.
  Result<std::shared_ptr<const core::TriadDetector>> Get(
      const std::string& key) const;

  /// Number of distinct models currently held.
  int64_t size() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace triad::serve

#endif  // TRIAD_SERVE_MODEL_REGISTRY_H_
