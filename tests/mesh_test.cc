#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/mesh/cluster_spec.h"
#include "src/mesh/device_mesh.h"
#include "src/mesh/submesh.h"
#include "src/support/rng.h"

namespace alpa {
namespace {

TEST(ClusterSpec, AwsP3) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(8);
  EXPECT_EQ(cluster.num_hosts, 8);
  EXPECT_EQ(cluster.devices_per_host, 8);
  EXPECT_EQ(cluster.num_devices(), 64);
  EXPECT_GT(cluster.intra_host_bandwidth, cluster.inter_host_bandwidth);
}

TEST(ClusterSpec, Precision) {
  EXPECT_EQ(BytesPerElement(Precision::kFloat16), 2);
  EXPECT_EQ(BytesPerElement(Precision::kFloat32), 4);
  DeviceSpec device;
  EXPECT_GT(device.PeakFlops(Precision::kFloat16), device.PeakFlops(Precision::kFloat32));
  EXPECT_LT(device.EffectiveFlops(Precision::kFloat16), device.PeakFlops(Precision::kFloat16));
}

TEST(ClusterSpec, ValidateAcceptsPresetsAndZeroLatency) {
  EXPECT_TRUE(ClusterSpec::AwsP3(8).Validate().ok());
  EXPECT_TRUE(ClusterSpec::MixedGeneration(2, 2, 2, DeviceSpec::H100()).Validate().ok());
  ClusterSpec zero_alpha = ClusterSpec::AwsP3(2, 2);
  zero_alpha.intra_host_alpha = 0.0;
  zero_alpha.inter_host_alpha = 0.0;
  EXPECT_TRUE(zero_alpha.Validate().ok());
}

TEST(ClusterSpec, ValidateRejectsEachMalformedField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, std::function<void(ClusterSpec&)>>> cases = {
      {"num_hosts", [](ClusterSpec& c) { c.num_hosts = 0; }},
      {"devices_per_host", [](ClusterSpec& c) { c.devices_per_host = -1; }},
      {"host_devices", [](ClusterSpec& c) { c.host_devices.resize(1); }},
      {"peak_flops_fp16", [](ClusterSpec& c) { c.device.peak_flops_fp16 = -1e14; }},
      {"peak_flops_fp32", [&](ClusterSpec& c) { c.device.peak_flops_fp32 = nan; }},
      {"memory_bytes", [](ClusterSpec& c) { c.device.memory_bytes = 0.0; }},
      {"memory_bandwidth", [&](ClusterSpec& c) { c.device.memory_bandwidth = inf; }},
      {"compute_efficiency", [](ClusterSpec& c) { c.device.compute_efficiency = 0.0; }},
      {"host_devices[1].peak_flops_fp16",
       [&](ClusterSpec& c) {
         c.host_devices.assign(2, c.device);
         c.host_devices[1].peak_flops_fp16 = nan;
       }},
      {"intra_host_bandwidth", [](ClusterSpec& c) { c.intra_host_bandwidth = 0.0; }},
      {"inter_host_bandwidth", [&](ClusterSpec& c) { c.inter_host_bandwidth = nan; }},
      {"intra_host_alpha", [](ClusterSpec& c) { c.intra_host_alpha = -1e-6; }},
      {"inter_host_alpha", [&](ClusterSpec& c) { c.inter_host_alpha = inf; }},
  };
  for (const auto& [field, corrupt] : cases) {
    ClusterSpec cluster = ClusterSpec::AwsP3(2, 2);
    corrupt(cluster);
    const Status status = cluster.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.message().find(field), std::string::npos) << status.message();
  }
}

TEST(ClusterSpec, WithoutHostsKeepsSurvivorGenerationsInOrder) {
  // Three distinct generations, so every survivor list shows its order:
  // host 0 V100, host 1 A100, host 2 H100.
  ClusterSpec mixed = ClusterSpec::MixedGeneration(1, 2, /*devices_per_host=*/2);
  mixed.host_devices[2] = DeviceSpec::H100();
  mixed.faults.device_failures.push_back({0, 1.0});
  const std::vector<std::pair<std::set<int>, std::vector<DeviceSpec>>> cases = {
      {{0}, {DeviceSpec::A100(), DeviceSpec::H100()}},     // First host.
      {{1}, {DeviceSpec::V100(), DeviceSpec::H100()}},     // A middle host.
      {{2}, {DeviceSpec::V100(), DeviceSpec::A100()}},     // Last host.
      {{0, 2}, {DeviceSpec::A100()}},
      {{}, {DeviceSpec::V100(), DeviceSpec::A100(), DeviceSpec::H100()}},
  };
  for (const auto& [dropped, generations] : cases) {
    const ClusterSpec survivors = mixed.WithoutHosts(dropped);
    EXPECT_EQ(survivors.num_hosts, static_cast<int>(generations.size()));
    EXPECT_EQ(survivors.host_devices, generations);
    EXPECT_TRUE(survivors.Validate().ok());
    // Everything but the host list is copied.
    EXPECT_EQ(survivors.devices_per_host, 2);
    EXPECT_EQ(survivors.inter_host_bandwidth, mixed.inter_host_bandwidth);
    EXPECT_EQ(survivors.faults.device_failures.size(), 1u);
  }
  // A homogeneous cluster stays homogeneous.
  const ClusterSpec homogeneous = ClusterSpec::AwsP3(3, 2).WithoutHosts({1});
  EXPECT_EQ(homogeneous.num_hosts, 2);
  EXPECT_TRUE(homogeneous.host_devices.empty());
  EXPECT_EQ(homogeneous.Fingerprint(), ClusterSpec::AwsP3(2, 2).Fingerprint());
}

TEST(DeviceMesh, SingleHostAxesUseNvlink) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1);
  const DeviceMesh mesh = DeviceMesh::CreateSimple(cluster, 1, 8);
  EXPECT_EQ(mesh.dim(0), 1);
  EXPECT_EQ(mesh.dim(1), 8);
  EXPECT_DOUBLE_EQ(mesh.bandwidth(0), cluster.intra_host_bandwidth);
  EXPECT_DOUBLE_EQ(mesh.bandwidth(1), cluster.intra_host_bandwidth);
}

TEST(DeviceMesh, MultiHostAxis0SharesNic) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(4);
  const DeviceMesh mesh = DeviceMesh::CreateSimple(cluster, 4, 8);
  EXPECT_DOUBLE_EQ(mesh.bandwidth(0), cluster.inter_host_bandwidth / 8);
  EXPECT_DOUBLE_EQ(mesh.bandwidth(1), cluster.intra_host_bandwidth);
}

TEST(DeviceMesh, RingAllReduceFormula) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1);
  const DeviceMesh mesh = DeviceMesh::CreateSimple(cluster, 1, 4);
  const double bytes = 1e9;
  const double expected =
      2.0 * 3 / 4 * bytes / cluster.intra_host_bandwidth + 2.0 * 3 * cluster.intra_host_alpha;
  EXPECT_DOUBLE_EQ(mesh.AllReduceTime(bytes, 1), expected);
  // Axis 0 has a single device: all collectives free.
  EXPECT_DOUBLE_EQ(mesh.AllReduceTime(bytes, 0), 0.0);
  EXPECT_DOUBLE_EQ(mesh.AllGatherTime(bytes, 0), 0.0);
}

TEST(DeviceMesh, AllGatherCheaperThanAllReduce) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(2);
  const DeviceMesh mesh = DeviceMesh::CreateSimple(cluster, 2, 8);
  const double bytes = 64e6;
  for (int axis = 0; axis < 2; ++axis) {
    EXPECT_LT(mesh.AllGatherTime(bytes, axis), mesh.AllReduceTime(bytes, axis));
    EXPECT_DOUBLE_EQ(mesh.AllGatherTime(bytes, axis), mesh.ReduceScatterTime(bytes, axis));
  }
}

TEST(DeviceMesh, HierarchicalBothAxes) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(4);
  const DeviceMesh mesh = DeviceMesh::CreateSimple(cluster, 4, 8);
  const double bytes = 1e8;
  // Hierarchical all-reduce must beat the naive flat ring over the slow
  // axis with the full payload.
  EXPECT_LT(mesh.AllReduceBothTime(bytes),
            mesh.AllReduceTime(bytes, 0) + mesh.AllReduceTime(bytes, 1));
  EXPECT_GT(mesh.AllReduceBothTime(bytes), 0.0);
  EXPECT_GT(mesh.AllGatherBothTime(bytes), 0.0);
}

TEST(DeviceMesh, DeviceIdsRowMajor) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(2, 4);
  const DeviceMesh mesh = DeviceMesh::CreateSimple(cluster, 2, 4);
  EXPECT_EQ(mesh.DeviceAt(0, 0), 0);
  EXPECT_EQ(mesh.DeviceAt(0, 3), 3);
  EXPECT_EQ(mesh.DeviceAt(1, 0), 4);
  EXPECT_EQ(mesh.DeviceAt(1, 3), 7);
  EXPECT_EQ(mesh.DeviceIds().size(), 8u);
}

TEST(DeviceMesh, PlacementOffsets) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(4, 8);
  MeshPlacement placement;
  placement.host_begin = 2;
  placement.device_begin = 4;
  placement.shape = SubmeshShape{1, 4};
  const DeviceMesh mesh = DeviceMesh::Create(cluster, placement, {1, 4});
  EXPECT_EQ(mesh.DeviceAt(0, 0), 2 * 8 + 4);
  EXPECT_EQ(mesh.DeviceAt(0, 3), 2 * 8 + 7);
}

TEST(DeviceMesh, LogicalShapeOptions) {
  auto single = DeviceMesh::LogicalShapeOptions(SubmeshShape{1, 8});
  // 1x8, 2x4, 4x2, 8x1.
  EXPECT_EQ(single.size(), 4u);
  auto multi = DeviceMesh::LogicalShapeOptions(SubmeshShape{4, 8});
  EXPECT_EQ(multi.size(), 3u);
}

TEST(DeviceMesh, P2P) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(2);
  EXPECT_LT(P2PTime(cluster, 1e6, /*cross_host=*/false), P2PTime(cluster, 1e6, true));
}

TEST(Submesh, Enumerate) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(8);
  const std::vector<SubmeshShape> shapes = EnumerateSubmeshShapes(cluster);
  // (1,1),(1,2),(1,4),(1,8) + (2,8)..(8,8) = 4 + 7 = 11.
  EXPECT_EQ(shapes.size(), 11u);
  EXPECT_EQ(shapes.front(), (SubmeshShape{1, 1}));
  EXPECT_EQ(shapes.back(), (SubmeshShape{8, 8}));
}

TEST(Submesh, CoverSimple) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(2, 4);
  auto placements = CoverCluster(cluster, {SubmeshShape{1, 4}, SubmeshShape{1, 2},
                                           SubmeshShape{1, 1}, SubmeshShape{1, 1}});
  ASSERT_TRUE(placements.has_value());
  // Every device covered exactly once.
  std::vector<int> covered(8, 0);
  for (size_t i = 0; i < placements->size(); ++i) {
    const DeviceMesh mesh = DeviceMesh::Create(
        cluster, (*placements)[i],
        {(*placements)[i].shape.num_hosts, (*placements)[i].shape.devices_per_host});
    for (int id : mesh.DeviceIds()) {
      covered[static_cast<size_t>(id)]++;
    }
  }
  for (int count : covered) {
    EXPECT_EQ(count, 1);
  }
}

TEST(Submesh, CoverRejectsBadInput) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(2, 4);
  // Wrong total.
  EXPECT_FALSE(CoverCluster(cluster, {SubmeshShape{1, 4}}).has_value());
  // Non power of two 1D shape.
  EXPECT_FALSE(
      CoverCluster(cluster, {SubmeshShape{1, 3}, SubmeshShape{1, 4}, SubmeshShape{1, 1}})
          .has_value());
  // Multi-host shape not spanning full hosts.
  EXPECT_FALSE(CoverCluster(cluster, {SubmeshShape{2, 2}, SubmeshShape{1, 4}}).has_value());
}

// Property test of Theorem 1: any random multiset of valid submesh shapes
// whose sizes sum to N*M can be placed.
TEST(Submesh, CoverPropertyRandom) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int hosts = 1 + static_cast<int>(rng.NextBounded(8));
    const int dph = 1 << rng.NextBounded(4);  // 1..8
    const ClusterSpec cluster = ClusterSpec::AwsP3(hosts, dph);
    int remaining = cluster.num_devices();
    std::vector<SubmeshShape> shapes;
    while (remaining > 0) {
      // Randomly pick a valid shape that still fits.
      if (remaining >= 2 * dph && rng.NextBounded(2) == 0) {
        const int h = 2 + static_cast<int>(rng.NextBounded(
                              static_cast<uint64_t>(remaining / dph - 1)));
        shapes.push_back(SubmeshShape{h, dph});
        remaining -= h * dph;
      } else {
        int d = 1 << rng.NextBounded(4);
        while (d > dph || d > remaining) {
          d /= 2;
        }
        shapes.push_back(SubmeshShape{1, d});
        remaining -= d;
      }
    }
    auto placements = CoverCluster(cluster, shapes);
    ASSERT_TRUE(placements.has_value()) << "trial " << trial;
    std::vector<int> covered(static_cast<size_t>(cluster.num_devices()), 0);
    for (size_t i = 0; i < placements->size(); ++i) {
      const DeviceMesh mesh = DeviceMesh::Create(
          cluster, (*placements)[i],
          {(*placements)[i].shape.num_hosts, (*placements)[i].shape.devices_per_host});
      for (int id : mesh.DeviceIds()) {
        covered[static_cast<size_t>(id)]++;
      }
    }
    for (int count : covered) {
      EXPECT_EQ(count, 1) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace alpa
