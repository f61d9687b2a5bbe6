#include "src/exec/host_tensor.h"

#include <algorithm>

#include "src/support/logging.h"
#include "src/support/rng.h"

namespace alpa {
namespace exec {

Box FullBox(const TensorShape& shape) {
  Box box(static_cast<size_t>(shape.rank()));
  for (int d = 0; d < shape.rank(); ++d) {
    box[static_cast<size_t>(d)] = {0, shape.dim(d)};
  }
  return box;
}

TensorShape BoxShape(const Box& box) {
  std::vector<int64_t> dims(box.size());
  for (size_t d = 0; d < box.size(); ++d) {
    dims[d] = box[d].second - box[d].first;
  }
  return TensorShape(std::move(dims));
}

int64_t BoxElements(const Box& box) {
  int64_t n = 1;
  for (const auto& [lo, hi] : box) {
    n *= hi - lo;
  }
  return n;
}

bool BoxContains(const Box& outer, const Box& inner) {
  if (outer.size() != inner.size()) {
    return false;
  }
  for (size_t d = 0; d < outer.size(); ++d) {
    if (inner[d].first < outer[d].first || inner[d].second > outer[d].second) {
      return false;
    }
  }
  return true;
}

std::string BoxToString(const Box& box) {
  std::string s = "[";
  for (size_t d = 0; d < box.size(); ++d) {
    if (d > 0) {
      s += ",";
    }
    s += std::to_string(box[d].first) + ":" + std::to_string(box[d].second);
  }
  return s + "]";
}

int64_t LinearIndexOf(const TensorShape& shape, const std::vector<int64_t>& index) {
  ALPA_CHECK_EQ(static_cast<int>(index.size()), shape.rank());
  int64_t linear = 0;
  for (int d = 0; d < shape.rank(); ++d) {
    linear = linear * shape.dim(d) + index[static_cast<size_t>(d)];
  }
  return linear;
}

int64_t HostTensor::LinearIndex(const std::vector<int64_t>& index) const {
  return LinearIndexOf(shape_, index);
}

TileData FullTile(const TensorShape& shape) {
  TileData tile;
  tile.full_shape = shape;
  tile.box = FullBox(shape);
  tile.data.assign(static_cast<size_t>(shape.elements()), 0.0f);
  return tile;
}

TileData ExtractTile(const HostTensor& full, const Box& box) {
  ALPA_CHECK(BoxContains(FullBox(full.shape()), box));
  TileData tile;
  tile.full_shape = full.shape();
  tile.box = box;
  tile.data.resize(static_cast<size_t>(std::max<int64_t>(1, BoxElements(box))));
  // Runs along the innermost dim are contiguous in both buffers.
  ForEachRun(box, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
    std::memcpy(tile.data.data() + k, full.data() + full.LinearIndex(index),
                sizeof(float) * static_cast<size_t>(len));
  });
  return tile;
}

void InsertTile(const TileData& tile, HostTensor* full) {
  ALPA_CHECK(tile.full_shape == full->shape());
  ForEachRun(tile.box, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
    std::memcpy(full->data() + full->LinearIndex(index), tile.data.data() + k,
                sizeof(float) * static_cast<size_t>(len));
  });
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

float GenValue(uint64_t key, int64_t index) {
  const uint64_t h = SplitMix64(key ^ SplitMix64(static_cast<uint64_t>(index) + 1));
  // 53 high bits -> [0, 1) -> [-0.25, 0.25).
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return static_cast<float>((unit - 0.5) * 0.5);
}

float GenIntValue(uint64_t key, int64_t index, int64_t bound) {
  ALPA_CHECK_GT(bound, 0);
  const uint64_t h = SplitMix64(key ^ SplitMix64(static_cast<uint64_t>(index) + 1));
  return static_cast<float>(static_cast<int64_t>(h % static_cast<uint64_t>(bound)));
}

uint64_t LeafKey(uint64_t seed, const std::string& name, OpType type, int microbatch) {
  uint64_t key = SplitMix64(seed) ^ HashName(name);
  if (type == OpType::kInput) {
    key = SplitMix64(key ^ static_cast<uint64_t>(microbatch + 1));
  }
  return key;
}

namespace {

// Integer leaves (token ids, class labels) stay small so downstream modulo
// lookups hit every table row on tiny test vocabularies.
constexpr int64_t kIntLeafBound = 4096;

}  // namespace

void GenerateLeafTile(const Operator& op, uint64_t seed, int microbatch, TileData* tile) {
  ALPA_CHECK(op.type == OpType::kInput || op.type == OpType::kParameter);
  const uint64_t key = LeafKey(seed, op.name, op.type, microbatch);
  const bool integer = op.dtype == DType::kI32;
  tile->data.resize(static_cast<size_t>(std::max<int64_t>(1, BoxElements(tile->box))));
  // Within a run the full-tensor linear index just increments.
  ForEachRun(tile->box, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
    const int64_t linear = LinearIndexOf(op.shape, index);
    float* out = tile->data.data() + k;
    if (integer) {
      for (int64_t i = 0; i < len; ++i) {
        out[i] = GenIntValue(key, linear + i, kIntLeafBound);
      }
    } else {
      for (int64_t i = 0; i < len; ++i) {
        out[i] = GenValue(key, linear + i);
      }
    }
  });
}

HostTensor GenerateLeaf(const Operator& op, uint64_t seed, int microbatch) {
  TileData tile;
  tile.full_shape = op.shape;
  tile.box = FullBox(op.shape);
  GenerateLeafTile(op, seed, microbatch, &tile);
  // The tile covers every element, so the zero fill would be pure waste.
  HostTensor full = HostTensor::Uninitialized(op.shape);
  InsertTile(tile, &full);
  return full;
}

}  // namespace exec
}  // namespace alpa
