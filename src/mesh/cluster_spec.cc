#include "src/mesh/cluster_spec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/support/logging.h"
#include "src/support/strings.h"

namespace alpa {

int64_t BytesPerElement(Precision precision) {
  switch (precision) {
    case Precision::kFloat16:
      return 2;
    case Precision::kFloat32:
      return 4;
  }
  ALPA_LOG(FATAL) << "Unknown precision";
  return 0;
}

DeviceSpec DeviceSpec::V100() { return DeviceSpec{}; }

DeviceSpec DeviceSpec::A100() {
  DeviceSpec spec;
  spec.peak_flops_fp16 = 312e12;
  spec.peak_flops_fp32 = 19.5e12;
  spec.memory_bytes = 40e9;
  spec.memory_bandwidth = 1555e9;
  return spec;
}

DeviceSpec DeviceSpec::H100() {
  DeviceSpec spec;
  spec.peak_flops_fp16 = 989e12;
  spec.peak_flops_fp32 = 67e12;
  spec.memory_bytes = 80e9;
  spec.memory_bandwidth = 3350e9;
  return spec;
}

ClusterSpec ClusterSpec::AwsP3(int num_hosts, int devices_per_host) {
  ALPA_CHECK_GE(num_hosts, 1);
  ALPA_CHECK_GE(devices_per_host, 1);
  ClusterSpec spec;
  spec.num_hosts = num_hosts;
  spec.devices_per_host = devices_per_host;
  return spec;
}

ClusterSpec ClusterSpec::MixedGeneration(int num_base_hosts, int num_fast_hosts,
                                         int devices_per_host, DeviceSpec fast) {
  ALPA_CHECK_GE(num_base_hosts, 0);
  ALPA_CHECK_GE(num_fast_hosts, 0);
  ClusterSpec spec = AwsP3(num_base_hosts + num_fast_hosts, devices_per_host);
  spec.host_devices.assign(static_cast<size_t>(num_base_hosts), spec.device);
  spec.host_devices.insert(spec.host_devices.end(), static_cast<size_t>(num_fast_hosts), fast);
  return spec;
}

Status ClusterSpec::Validate() const {
  if (num_hosts < 1 || devices_per_host < 1) {
    return Status::InvalidArgument(
        StrFormat("cluster num_hosts and devices_per_host must be >= 1, got %d and %d",
                  num_hosts, devices_per_host));
  }
  if (!host_devices.empty() && host_devices.size() != static_cast<size_t>(num_hosts)) {
    return Status::InvalidArgument(StrFormat("cluster has %zu host_devices entries for %d hosts",
                                             host_devices.size(), num_hosts));
  }
  // `name` > 0 (or >= 0 when zero is allowed), and finite: NaN fails both.
  const auto check = [](const std::string& name, double value, bool allow_zero) {
    if (std::isfinite(value) && (value > 0.0 || (allow_zero && value == 0.0))) {
      return Status::Ok();
    }
    return Status::InvalidArgument(StrFormat("cluster %s must be finite and %s 0, got %g",
                                             name.c_str(), allow_zero ? ">=" : ">", value));
  };
  const auto check_device = [&check](const std::string& name, const DeviceSpec& d) {
    const std::pair<const char*, double> fields[] = {
        {"peak_flops_fp16", d.peak_flops_fp16},   {"peak_flops_fp32", d.peak_flops_fp32},
        {"memory_bytes", d.memory_bytes},         {"memory_bandwidth", d.memory_bandwidth},
        {"compute_efficiency", d.compute_efficiency}};
    for (const auto& [field, value] : fields) {
      ALPA_RETURN_IF_ERROR(check(name + "." + field, value, /*allow_zero=*/false));
    }
    return Status::Ok();
  };
  ALPA_RETURN_IF_ERROR(check_device("device", device));
  for (size_t h = 0; h < host_devices.size(); ++h) {
    ALPA_RETURN_IF_ERROR(check_device(StrFormat("host_devices[%zu]", h), host_devices[h]));
  }
  ALPA_RETURN_IF_ERROR(check("intra_host_bandwidth", intra_host_bandwidth, false));
  ALPA_RETURN_IF_ERROR(check("inter_host_bandwidth", inter_host_bandwidth, false));
  ALPA_RETURN_IF_ERROR(check("intra_host_alpha", intra_host_alpha, /*allow_zero=*/true));
  ALPA_RETURN_IF_ERROR(check("inter_host_alpha", inter_host_alpha, true));
  return Status::Ok();
}

bool ClusterSpec::heterogeneous() const {
  if (host_devices.empty()) {
    return false;
  }
  return std::any_of(host_devices.begin(), host_devices.end(),
                     [this](const DeviceSpec& d) { return !(d == device); });
}

const DeviceSpec& ClusterSpec::host_device(int host) const {
  if (host_devices.empty()) {
    return device;
  }
  ALPA_CHECK_GE(host, 0);
  ALPA_CHECK_LT(host, static_cast<int>(host_devices.size()));
  return host_devices[static_cast<size_t>(host)];
}

ClusterSpec ClusterSpec::WithoutHosts(const std::set<int>& hosts) const {
  ALPA_CHECK(hosts.empty() || (*hosts.begin() >= 0 && *hosts.rbegin() < num_hosts));
  ALPA_CHECK_LT(static_cast<int>(hosts.size()), num_hosts);
  ClusterSpec survivors = *this;
  survivors.num_hosts = num_hosts - static_cast<int>(hosts.size());
  if (!host_devices.empty()) {
    survivors.host_devices.clear();
    for (int h = 0; h < num_hosts; ++h) {
      if (hosts.count(h) == 0) {
        survivors.host_devices.push_back(host_devices[static_cast<size_t>(h)]);
      }
    }
  }
  return survivors;
}

double ClusterSpec::HostTimeScale(int host, Precision precision) const {
  const DeviceSpec& actual = host_device(host);
  const double flops_ratio =
      device.EffectiveFlops(precision) / actual.EffectiveFlops(precision);
  const double bandwidth_ratio = device.memory_bandwidth / actual.memory_bandwidth;
  return std::max(flops_ratio, bandwidth_ratio);
}

uint64_t ClusterSpec::Fingerprint() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis.
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_f64 = [&mix](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  const auto mix_device = [&](const DeviceSpec& d) {
    mix_f64(d.peak_flops_fp16);
    mix_f64(d.peak_flops_fp32);
    mix_f64(d.memory_bytes);
    mix_f64(d.memory_bandwidth);
    mix_f64(d.compute_efficiency);
  };
  mix(static_cast<uint64_t>(num_hosts));
  mix(static_cast<uint64_t>(devices_per_host));
  mix_device(device);
  mix_f64(intra_host_bandwidth);
  mix_f64(intra_host_alpha);
  mix_f64(inter_host_bandwidth);
  mix_f64(inter_host_alpha);
  mix(static_cast<uint64_t>(host_devices.size()));
  for (const DeviceSpec& d : host_devices) {
    mix_device(d);
  }
  return h;
}

std::string ClusterSpec::ToString() const {
  std::string base =
      StrFormat("Cluster(%d hosts x %d devices, nvlink=%s/s, net=%s/s", num_hosts,
                devices_per_host, HumanBytes(intra_host_bandwidth).c_str(),
                HumanBytes(inter_host_bandwidth).c_str());
  if (heterogeneous()) {
    int fast_hosts = 0;
    for (int host = 0; host < num_hosts; ++host) {
      if (!(host_device(host) == device)) {
        ++fast_hosts;
      }
    }
    base += StrFormat(", %d non-reference hosts", fast_hosts);
  }
  return base + ")";
}

}  // namespace alpa
