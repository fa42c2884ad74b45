#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

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

// A one-tensor stream with a hand-written shape and `body_bytes` zero bytes
// of data.
std::string CraftedStream(const std::vector<int64_t>& dims,
                          size_t body_bytes) {
  std::string s = "TRTN";
  auto put = [&s](const auto& v) {
    s.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{1});  // version
  put(uint64_t{1});  // tensor count
  put(static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) put(d);
  s.append(body_bytes, '\0');
  return s;
}

TEST(SerializeTest, CraftedHeaderRoundTripsWhenHonest) {
  std::stringstream in(CraftedStream({2, 3}, 6 * sizeof(float)));
  auto loaded = ReadTensors(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].size(), 6);
}

TEST(SerializeTest, RejectsOverflowingShapeProduct) {
  // 2^40 cubed overflows int64; the reader must refuse before multiplying.
  const int64_t big = int64_t{1} << 40;
  std::stringstream in(CraftedStream({big, big, big}, 16));
  auto loaded = ReadTensors(in);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::stringstream wraps(CraftedStream({int64_t{1} << 62, 4, 0}, 0));
  EXPECT_FALSE(ReadTensors(wraps).ok());
}

TEST(SerializeTest, RejectsHugeSizeBehindShortBody) {
  // Declares 2^30 floats (4 GiB, at the cap) but carries 8 bytes.
  std::stringstream in(CraftedStream({int64_t{1} << 15, int64_t{1} << 15}, 8));
  auto loaded = ReadTensors(in);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::stringstream over(CraftedStream({(int64_t{1} << 30) + 1}, 8));
  EXPECT_FALSE(ReadTensors(over).ok());
}

TEST(SerializeTest, RejectsNegativeDimension) {
  std::stringstream in(CraftedStream({4, -3}, 48));
  auto loaded = ReadTensors(in);
  EXPECT_FALSE(loaded.ok());
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
