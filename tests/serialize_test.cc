#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "nn/layers.h"
#include "nn/serialize.h"

namespace triad::nn {
namespace {

std::string Encode(const std::vector<Tensor>& tensors) {
  std::string bytes;
  io::ByteWriter out(&bytes);
  WriteTensors(out, tensors);
  return bytes;
}

Result<std::vector<Tensor>> Decode(std::string_view bytes) {
  io::ByteReader in(bytes);
  return ReadTensors(in);
}

TEST(SerializeTest, RoundTripsThroughStream) {
  Rng rng(1);
  std::vector<Tensor> tensors = {
      Tensor::Randn({3, 4}, &rng),
      Tensor::Randn({2, 2, 5}, &rng),
      Tensor::Scalar(7.25f),
      Tensor::Zeros({8}),
      Tensor::Zeros({0, 3}),
  };
  auto loaded = Decode(Encode(tensors));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), tensors.size());
  for (size_t i = 0; i < tensors.size(); ++i) {
    ASSERT_TRUE((*loaded)[i].SameShape(tensors[i])) << i;
    for (int64_t j = 0; j < tensors[i].size(); ++j) {
      EXPECT_FLOAT_EQ((*loaded)[i][j], tensors[i][j]);
    }
  }
}

TEST(SerializeTest, EmptyTensorListRoundTrips) {
  auto loaded = Decode(Encode({}));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(SerializeTest, RejectsBadMagic) {
  EXPECT_EQ(Decode("not a tensor stream at all").status().code(),
            StatusCode::kInvalidArgument);
}

// Every proper prefix of a stream is rejected, whichever field it cuts.
TEST(SerializeTest, RejectsTruncatedStream) {
  Rng rng(2);
  const std::string full =
      Encode({Tensor::Randn({3, 4}, &rng), Tensor::Scalar(1.5f)});
  for (size_t n = 0; n < full.size(); ++n) {
    auto loaded = Decode(std::string_view(full).substr(0, n));
    ASSERT_FALSE(loaded.ok()) << n;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << n;
  }
}

// A stream holding one tensor header of the given shape and no data.
std::string HeaderOnly(const std::vector<int64_t>& dims) {
  std::string bytes = "TRTN";
  io::ByteWriter out(&bytes);
  out.Put(uint32_t{1});
  out.Put(uint64_t{1});
  out.Put(static_cast<uint32_t>(dims.size()));
  out.PutArray(dims.data(), dims.size());
  return bytes;
}

// A shape whose element count overflows int64 is rejected before the
// multiply that would overflow (signed overflow is undefined behaviour).
TEST(SerializeTest, RejectsOverflowingShape) {
  const int64_t big = int64_t{1} << 31;
  auto loaded = Decode(HeaderOnly({big, big, big}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// A shape within the element cap (2^30 floats, 4 GiB) that the 36-byte
// stream does not hold is rejected before anything is sized from it.
TEST(SerializeTest, RejectsShapeTheStreamDoesNotHold) {
  const std::string bytes = HeaderOnly({int64_t{1} << 15, int64_t{1} << 15});
  ASSERT_EQ(bytes.size(), 36u);
  auto loaded = Decode(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

// A tensor count the stream cannot hold stops at the first short read.
TEST(SerializeTest, RejectsCountTheStreamDoesNotHold) {
  std::string bytes = Encode({Tensor::Scalar(2.0f)});
  const uint64_t count = ~uint64_t{0};
  bytes.replace(8, sizeof(count), reinterpret_cast<const char*>(&count),
                sizeof(count));
  auto loaded = Decode(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(AssignParametersTest, CopiesIntoModel) {
  Rng rng(4);
  Linear source(3, 2, &rng);
  Linear target(3, 2, &rng);
  std::vector<Tensor> weights;
  for (const Var& p : source.Parameters()) weights.push_back(p.value());
  ASSERT_TRUE(AssignParameters(weights, target.Parameters()).ok());
  const auto sp = source.Parameters();
  const auto tp = target.Parameters();
  for (size_t i = 0; i < sp.size(); ++i) {
    for (int64_t j = 0; j < sp[i].size(); ++j) {
      EXPECT_FLOAT_EQ(tp[i].value()[j], sp[i].value()[j]);
    }
  }
}

TEST(AssignParametersTest, RejectsCountMismatch) {
  Rng rng(5);
  Linear layer(3, 2, &rng);
  EXPECT_FALSE(AssignParameters({Tensor::Zeros({3, 2})},
                                layer.Parameters())
                   .ok());
}

TEST(AssignParametersTest, RejectsShapeMismatch) {
  Rng rng(6);
  Linear layer(3, 2, &rng);
  std::vector<Tensor> wrong = {Tensor::Zeros({2, 3}), Tensor::Zeros({2})};
  EXPECT_FALSE(AssignParameters(wrong, layer.Parameters()).ok());
}

}  // namespace
}  // namespace triad::nn
