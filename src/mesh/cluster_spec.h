// Description of the target compute cluster.
//
// The paper evaluates on 8 AWS p3.16xlarge nodes (8 NVIDIA V100 16GB each,
// NVLink within a node, 25 Gbps across nodes). We model a cluster as a grid
// of `num_hosts x devices_per_host` accelerators with a two-tier
// interconnect described by alpha-beta (latency-bandwidth) parameters.
#ifndef SRC_MESH_CLUSTER_SPEC_H_
#define SRC_MESH_CLUSTER_SPEC_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/mesh/fault_spec.h"
#include "src/support/status.h"

namespace alpa {

// Numeric precision of tensors; determines both element width and the
// achievable device throughput (tensor cores for fp16).
enum class Precision {
  kFloat16,
  kFloat32,
};

// Bytes per element for a precision.
int64_t BytesPerElement(Precision precision);

// Static description of one accelerator device.
struct DeviceSpec {
  // Peak throughput in FLOP/s by precision.
  double peak_flops_fp16 = 125e12;  // V100 tensor core peak.
  double peak_flops_fp32 = 15.7e12;
  // Device memory in bytes.
  double memory_bytes = 16e9;
  // HBM bandwidth in bytes/s (bounds pointwise-op throughput).
  double memory_bandwidth = 900e9;
  // Fraction of peak a well-tuned kernel achieves on average. The paper's
  // own piece-wise linear cost model plays the same role (7.4).
  double compute_efficiency = 0.45;

  double PeakFlops(Precision precision) const {
    return precision == Precision::kFloat16 ? peak_flops_fp16 : peak_flops_fp32;
  }
  double EffectiveFlops(Precision precision) const {
    return PeakFlops(precision) * compute_efficiency;
  }

  bool operator==(const DeviceSpec&) const = default;

  // --- Generation presets (paper-era V100 is the library default). ---
  static DeviceSpec V100();  // == DeviceSpec{} — the reference generation.
  static DeviceSpec A100();  // 312 TFLOPS fp16, 40 GB, 1555 GB/s HBM.
  static DeviceSpec H100();  // 989 TFLOPS fp16, 80 GB, 3350 GB/s HBM.
};

// Static description of the whole cluster.
struct ClusterSpec {
  int num_hosts = 1;
  int devices_per_host = 1;
  // The REFERENCE device generation: the intra-op cost model and the stage
  // profiler price every submesh against this spec, so profiles stay keyed
  // by shape (not placement) and the process-wide ILP memo keeps working
  // across cluster mutations. Heterogeneous clusters overlay per-host
  // generations via `host_devices`.
  DeviceSpec device;
  // Per-host device overrides for mixed-generation clusters. Empty =
  // homogeneous (every host runs `device`); otherwise exactly one entry per
  // host. The inter-op pass resolves the difference at stage
  // MATERIALIZATION: stage latencies are scaled by each placement's
  // HostTimeScale and memory feasibility checks use the placement's actual
  // capacity, so the compiler deliberately matches slow stages to fast
  // meshes (see InterOpOptions::hetero_aware).
  std::vector<DeviceSpec> host_devices;

  // Intra-host interconnect (NVLink): bus bandwidth in bytes/s and latency.
  double intra_host_bandwidth = 150e9;
  double intra_host_alpha = 2e-6;
  // Cross-host interconnect (datacenter network): bandwidth in bytes/s of
  // one host NIC and per-message latency.
  double inter_host_bandwidth = 3.125e9;  // 25 Gbps.
  double inter_host_alpha = 10e-6;

  // Fault scenario the simulated runtime replays against plans compiled for
  // this cluster (empty = the paper's static healthy-cluster assumption).
  // The compiler ignores it; Parallelize() threads it into the simulator
  // input so a single plan can be stress-tested under many scenarios.
  FaultSpec faults;

  int num_devices() const { return num_hosts * devices_per_host; }

  // kInvalidArgument unless the cluster can be priced: both extents >= 1;
  // every rate, capacity and efficiency of `device` and of each
  // `host_devices` entry finite and > 0; both bandwidths finite and > 0;
  // both alphas finite and >= 0; `host_devices` empty or one per host.
  // Parallelize() checks this before compiling. The fault scenario is not
  // checked.
  Status Validate() const;

  // True when per-host overrides are present and at least one host differs
  // from the reference generation.
  bool heterogeneous() const;

  // The generation running host `h` (the reference `device` when no
  // override exists).
  const DeviceSpec& host_device(int host) const;

  // This cluster without the hosts in `hosts`: the survivors keep their
  // generation overrides in order (a homogeneous cluster stays
  // homogeneous), every other field is copied. Each index must name a
  // host, and at least one host must survive; callers check both first.
  ClusterSpec WithoutHosts(const std::set<int>& hosts) const;

  // How much LONGER a stage profiled on the reference generation runs on
  // host `host`: the max of the compute-throughput and HBM-bandwidth
  // ratios (a stage mixes compute- and bandwidth-bound ops; the binding
  // resource sets the wall time). < 1 on a faster-than-reference host.
  double HostTimeScale(int host, Precision precision) const;

  // FNV-1a digest of the topology and device generations (faults excluded:
  // a fault scenario replays against a cluster, it does not define one).
  // The elastic runtime keys speculative presolves on this.
  uint64_t Fingerprint() const;

  // The testbed used in the paper: AWS p3.16xlarge nodes.
  static ClusterSpec AwsP3(int num_hosts, int devices_per_host = 8);

  // Mixed-generation preset: `num_base_hosts` reference-generation (V100)
  // hosts followed by `num_fast_hosts` of `fast`. Interconnect parameters
  // stay at the AwsP3 defaults so the only heterogeneity is the device
  // generation — exactly the scenario the hetero-aware stage assignment
  // targets.
  static ClusterSpec MixedGeneration(int num_base_hosts, int num_fast_hosts,
                                     int devices_per_host = 8,
                                     DeviceSpec fast = DeviceSpec::A100());

  std::string ToString() const;
};

}  // namespace alpa

#endif  // SRC_MESH_CLUSTER_SPEC_H_
