#include "common/deadline.h"

namespace triad {
namespace {

thread_local PassDeadline tls_deadline = kNoPassDeadline;

}  // namespace

PassDeadline CurrentPassDeadline() { return tls_deadline; }

Status CheckPassDeadline() {
  if (tls_deadline == kNoPassDeadline ||
      std::chrono::steady_clock::now() < tls_deadline) {
    return Status::OK();
  }
  return Status::DeadlineExceeded("pass ran past its deadline budget");
}

ScopedPassDeadline::ScopedPassDeadline(PassDeadline deadline)
    : previous_(tls_deadline) {
  tls_deadline = deadline;
}

ScopedPassDeadline::~ScopedPassDeadline() { tls_deadline = previous_; }

}  // namespace triad
