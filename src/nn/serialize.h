#ifndef TRIAD_NN_SERIALIZE_H_
#define TRIAD_NN_SERIALIZE_H_

#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "nn/tensor.h"
#include "nn/variable.h"

namespace triad::nn {

/// \file Binary tensor (de)serialization.
///
/// Format (little-endian): magic "TRTN", u32 version, u64 tensor count;
/// per tensor: u32 ndim, i64 dims..., f32 data. Used for model checkpoints
/// (see core::TriadDetector::Save).

/// Appends a tensor stream holding `tensors`.
void WriteTensors(io::ByteWriter& out, const std::vector<Tensor>& tensors);

/// Reads a tensor stream written by WriteTensors. InvalidArgument when the
/// bytes are not one (bad magic or version, an implausible shape, or fewer
/// bytes than the shapes need).
Result<std::vector<Tensor>> ReadTensors(io::ByteReader& in);

/// Copies loaded values into an existing parameter set (e.g. a freshly
/// constructed model); counts and shapes must match exactly.
Status AssignParameters(const std::vector<Tensor>& values,
                        const std::vector<Var>& params);

}  // namespace triad::nn

#endif  // TRIAD_NN_SERIALIZE_H_
