#include "nn/serialize.h"

#include <sstream>

namespace triad::nn {
namespace {

constexpr char kMagic[4] = {'T', 'R', 'T', 'N'};
constexpr uint32_t kVersion = 1;

}  // namespace

void WriteTensors(io::ByteWriter& out, const std::vector<Tensor>& tensors) {
  out.PutBytes(std::string_view(kMagic, sizeof(kMagic)));
  out.Put(kVersion);
  out.Put(static_cast<uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    out.Put(static_cast<uint32_t>(t.ndim()));
    for (int i = 0; i < t.ndim(); ++i) out.Put(t.dim(i));
    out.PutArray(t.data(), static_cast<size_t>(t.size()));
  }
}

Result<std::vector<Tensor>> ReadTensors(io::ByteReader& in) {
  if (in.GetBytes(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::InvalidArgument("not a TriAD tensor stream (bad magic)");
  }
  if (in.Get<uint32_t>() != kVersion) {
    return Status::InvalidArgument("unsupported tensor stream version");
  }
  const auto count = in.Get<uint64_t>();
  if (!in.ok()) return Status::InvalidArgument("tensor stream truncated");
  // Tensors are appended as they decode, so a hostile count stops at the
  // first short read instead of sizing the list.
  std::vector<Tensor> tensors;
  for (uint64_t i = 0; i < count; ++i) {
    const auto ndim = in.Get<uint32_t>();
    std::vector<int64_t> shape;
    if (ndim > 8 || !in.GetArray(ndim, &shape)) {
      return Status::InvalidArgument("corrupt tensor header");
    }
    constexpr int64_t kMaxElements = 1ll << 30;
    int64_t size = 1;
    for (int64_t d : shape) {
      if (d < 0) return Status::InvalidArgument("corrupt tensor shape");
      // Checked before multiplying, so a hostile shape cannot overflow.
      if (d > 0 && size > kMaxElements / d) {
        return Status::InvalidArgument("implausible tensor size");
      }
      size *= d;
    }
    std::vector<float> data;
    if (!in.GetArray(static_cast<uint64_t>(size), &data)) {
      return Status::InvalidArgument("tensor stream truncated");
    }
    tensors.emplace_back(std::move(shape), std::move(data));
  }
  return tensors;
}

Status AssignParameters(const std::vector<Tensor>& values,
                        const std::vector<Var>& params) {
  if (values.size() != params.size()) {
    std::ostringstream os;
    os << "parameter count mismatch: stream has " << values.size()
       << ", model has " << params.size();
    return Status::InvalidArgument(os.str());
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].SameShape(params[i].value())) {
      std::ostringstream os;
      os << "parameter " << i << " shape mismatch: stream "
         << values[i].ShapeString() << " vs model "
         << params[i].value().ShapeString();
      return Status::InvalidArgument(os.str());
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Var param = params[i];
    param.mutable_value() = values[i];
  }
  return Status::OK();
}

}  // namespace triad::nn
