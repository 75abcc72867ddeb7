#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "nn/layers.h"
#include "nn/serialize.h"

namespace triad::nn {
namespace {

TEST(SerializeTest, RoundTripsThroughStream) {
  Rng rng(1);
  std::vector<Tensor> tensors = {
      Tensor::Randn({3, 4}, &rng),
      Tensor::Randn({2, 2, 5}, &rng),
      Tensor::Scalar(7.25f),
      Tensor::Zeros({8}),
  };
  std::stringstream buffer;
  ASSERT_TRUE(WriteTensors(buffer, tensors).ok());
  auto loaded = ReadTensors(buffer);
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
  std::stringstream buffer;
  ASSERT_TRUE(WriteTensors(buffer, {}).ok());
  auto loaded = ReadTensors(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(SerializeTest, RejectsBadMagic) {
  std::stringstream buffer("not a tensor stream at all");
  EXPECT_FALSE(ReadTensors(buffer).ok());
}

TEST(SerializeTest, RejectsTruncatedStream) {
  Rng rng(2);
  std::stringstream buffer;
  ASSERT_TRUE(WriteTensors(buffer, {Tensor::Randn({10, 10}, &rng)}).ok());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(ReadTensors(truncated).ok());
}

// A shape whose element count overflows int64 is rejected before the
// multiply that would overflow (signed overflow is undefined behaviour).
TEST(SerializeTest, RejectsOverflowingShape) {
  std::stringstream buffer;
  buffer.write("TRTN", 4);
  const uint32_t version = 1, rank = 3;
  const uint64_t count = 1;
  const int64_t dims[3] = {int64_t{1} << 31, int64_t{1} << 31,
                           int64_t{1} << 31};
  buffer.write(reinterpret_cast<const char*>(&version), sizeof(version));
  buffer.write(reinterpret_cast<const char*>(&count), sizeof(count));
  buffer.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  buffer.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  auto loaded = ReadTensors(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(3);
  const std::string path = "/tmp/triad_serialize_test.bin";
  std::vector<Tensor> tensors = {Tensor::Randn({4, 4}, &rng)};
  ASSERT_TRUE(SaveTensors(path, tensors).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FLOAT_EQ((*loaded)[0][7], tensors[0][7]);
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadTensors("/tmp/definitely_missing_triad.bin").ok());
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
