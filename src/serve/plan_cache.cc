#include "src/serve/plan_cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/serve/wire.h"
#include "src/support/hashing.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {
namespace serve {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return static_cast<bool>(in);
}

bool WriteFileAtomic(const std::string& path, const std::string& data) {
  static std::atomic<uint64_t> counter{0};
  const std::string tmp =
      StrFormat("%s.tmp.%d.%llu", path.c_str(), static_cast<int>(::getpid()),
                static_cast<unsigned long long>(counter.fetch_add(1)));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

namespace {

// Checks only the envelope header (magic + version) — enough to decide
// whether a persisted entry belongs to this wire format without decoding
// the payload.
bool HeaderVersionMatches(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  unsigned char header[6] = {0};
  if (!in.read(reinterpret_cast<char*>(header), sizeof(header))) {
    return false;
  }
  const uint32_t magic = static_cast<uint32_t>(header[0]) |
                         (static_cast<uint32_t>(header[1]) << 8) |
                         (static_cast<uint32_t>(header[2]) << 16) |
                         (static_cast<uint32_t>(header[3]) << 24);
  const uint16_t version =
      static_cast<uint16_t>(header[4]) | (static_cast<uint16_t>(header[5]) << 8);
  return magic == kWireMagic && version == kWireVersion;
}

// Recovers the cache key from an entry's file name; false when the name
// is not `<16 hex>-<16 hex>.plan`.
bool ParseEntryName(const std::string& name, PlanCacheKey* key) {
  unsigned long long graph = 0;
  unsigned long long config = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "%16llx-%16llx.plan%n", &graph, &config, &consumed) != 2 ||
      consumed != static_cast<int>(name.size())) {
    return false;
  }
  key->graph_hash = graph;
  key->config_hash = config;
  return true;
}

// True when a follower can wait `deadline_seconds` on the steady clock.
// Its time points are int64 nanoseconds, so a wait past what the clock can
// still count from now would overflow into an immediate timeout; such a
// deadline cannot expire and counts as none. The second of slack absorbs
// the rounding of the conversion.
bool WaitableDeadline(double deadline_seconds) {
  using Clock = std::chrono::steady_clock;
  const double range =
      std::chrono::duration<double>(Clock::time_point::max() - Clock::now()).count();
  return deadline_seconds > 0 && deadline_seconds < range - 1.0;
}

}  // namespace

PlanCache& PlanCache::Global() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

Status PlanCache::SetDiskDir(const std::string& dir) {
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal(
          StrFormat("plan cache: cannot create %s: %s", dir.c_str(), ec.message().c_str()));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  disk_dir_ = dir;
  disk_index_.clear();
  disk_bytes_ = 0;
  access_counter_ = 0;
  if (!dir.empty()) {
    // Version sweep + index rebuild. Unrecognized or stale-format files
    // are unlinked eagerly (a later Lookup would only treat them as a
    // miss anyway); survivors are indexed in sorted-name order so the
    // initial LRU order is deterministic.
    std::vector<std::pair<std::string, int64_t>> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() != ".plan") {
        continue;
      }
      files.emplace_back(entry.path().filename().string(),
                         static_cast<int64_t>(entry.file_size(ec)));
    }
    std::sort(files.begin(), files.end());
    for (const auto& [name, bytes] : files) {
      const std::string path = dir + "/" + name;
      PlanCacheKey key;
      if (!ParseEntryName(name, &key) || !HeaderVersionMatches(path)) {
        std::remove(path.c_str());
        static Metric* swept = Metrics::Get("plan_cache/version_swept");
        swept->Add(1);
        continue;
      }
      disk_index_[key] = DiskEntry{bytes, ++access_counter_};
      disk_bytes_ += bytes;
    }
    EnforceLimitsLocked();
  }
  UpdateMetricsLocked();
  return Status::Ok();
}

std::string PlanCache::disk_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_dir_;
}

void PlanCache::SetLimits(const PlanCacheLimits& limits) {
  std::lock_guard<std::mutex> lock(mu_);
  limits_ = limits;
  EnforceLimitsLocked();
  UpdateMetricsLocked();
}

PlanCacheLimits PlanCache::limits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limits_;
}

std::string PlanCache::EntryPath(const PlanCacheKey& key) const {
  return StrFormat("%s/%016llx-%016llx.plan", disk_dir_.c_str(),
                   static_cast<unsigned long long>(key.graph_hash),
                   static_cast<unsigned long long>(key.config_hash));
}

void PlanCache::EvictLocked(const PlanCacheKey& key) {
  const auto it = disk_index_.find(key);
  if (it == disk_index_.end()) {
    return;
  }
  std::remove(EntryPath(key).c_str());
  disk_bytes_ -= it->second.bytes;
  disk_index_.erase(it);
  // Drop the memory promotion with the disk entry so the caps genuinely
  // bound the store (otherwise an evicted plan would linger in memory and
  // resurface as a hit the caps pretend not to have).
  entries_.erase(key);
  static Metric* evictions = Metrics::Get("plan_cache/evictions");
  evictions->Add(1);
}

void PlanCache::EnforceLimitsLocked() {
  const auto over = [&] {
    return (limits_.max_disk_entries > 0 &&
            static_cast<int64_t>(disk_index_.size()) > limits_.max_disk_entries) ||
           (limits_.max_disk_bytes > 0 && disk_bytes_ > limits_.max_disk_bytes);
  };
  while (over()) {
    // Oldest logical access first. Copy the key out: EvictLocked erases
    // the index node that owns it.
    PlanCacheKey victim;
    bool found = false;
    uint64_t oldest = 0;
    for (const auto& [key, entry] : disk_index_) {
      if (!found || entry.access_seq < oldest) {
        victim = key;
        found = true;
        oldest = entry.access_seq;
      }
    }
    if (!found) {
      break;
    }
    EvictLocked(victim);
  }
}

void PlanCache::UpdateMetricsLocked() {
  static Metric* size_metric = Metrics::Get("plan_cache/entries");
  static Metric* disk_entries = Metrics::Get("plan_cache/disk_entries");
  static Metric* disk_bytes = Metrics::Get("plan_cache/disk_bytes");
  size_metric->Set(static_cast<int64_t>(entries_.size()));
  disk_entries->Set(static_cast<int64_t>(disk_index_.size()));
  disk_bytes->Set(disk_bytes_);
}

bool PlanCache::Lookup(const PlanCacheKey& key, ParallelPlan* plan) {
  static Metric* memory_hits = Metrics::Get("plan_cache/memory_hits");
  static Metric* disk_hits = Metrics::Get("plan_cache/disk_hits");
  static Metric* misses = Metrics::Get("plan_cache/misses");

  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      *plan = it->second;
      // A memory hit is a use: touch the persisted twin so a hot entry
      // never looks cold to the LRU evictor.
      auto disk_it = disk_index_.find(key);
      if (disk_it != disk_index_.end()) {
        disk_it->second.access_seq = ++access_counter_;
      }
      memory_hits->Add(1);
      return true;
    }
    if (disk_dir_.empty()) {
      misses->Add(1);
      return false;
    }
    path = EntryPath(key);
  }

  // Disk probe outside the lock: file IO and decoding are slow.
  std::string blob;
  bool hit = false;
  bool probed = false;
  if (ReadFile(path, &blob)) {
    probed = true;
    std::string_view payload;
    if (WireUnpack(blob, WireKind::kCacheEntry, &payload).ok()) {
      WireReader r(payload);
      PlanCacheKey stored;
      stored.graph_hash = r.U64();
      stored.config_hash = r.U64();
      ParallelPlan decoded;
      if (r.ok() && stored == key && DecodePlan(&r, &decoded).ok() && r.remaining() == 0) {
        *plan = std::move(decoded);
        hit = true;
      }
    }
    if (!hit) {
      // Corrupt or stale-format entry: self-clean so it is not re-probed.
      std::remove(path.c_str());
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (hit) {
    auto it = disk_index_.find(key);
    bool on_disk = it != disk_index_.end();
    if (on_disk) {
      it->second.access_seq = ++access_counter_;  // LRU touch.
    } else {
      // Not indexed: either written by another process since the sweep,
      // or evicted between our unlocked read and re-locking. Re-stat so
      // an entry the evictor just unlinked is not re-indexed (that would
      // leave disk_bytes_ counting a phantom file).
      std::error_code ec;
      if (std::filesystem::exists(path, ec)) {
        disk_index_[key] = DiskEntry{static_cast<int64_t>(blob.size()), ++access_counter_};
        disk_bytes_ += static_cast<int64_t>(blob.size());
        on_disk = true;
      }
    }
    if (on_disk) {
      // Promote; first writer wins. An entry evicted mid-probe stays out
      // of memory too, so the caps keep genuinely bounding the store.
      entries_.emplace(key, *plan);
    }
    disk_hits->Add(1);
  } else {
    if (probed) {
      // The unlink above removed a corrupt entry; keep the size
      // accounting (and the exported metrics) consistent with the store.
      auto it = disk_index_.find(key);
      if (it != disk_index_.end()) {
        disk_bytes_ -= it->second.bytes;
        disk_index_.erase(it);
      }
    }
    misses->Add(1);
  }
  UpdateMetricsLocked();
  return hit;
}

void PlanCache::Insert(const PlanCacheKey& key, const ParallelPlan& plan) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(key, plan);
    if (disk_dir_.empty()) {
      UpdateMetricsLocked();
      return;
    }
    path = EntryPath(key);
  }
  WireWriter w;
  w.U64(key.graph_hash);
  w.U64(key.config_hash);
  EncodePlan(plan, &w);
  const std::string blob = WirePack(WireKind::kCacheEntry, w.Take());
  const bool written = WriteFileAtomic(path, blob);

  std::lock_guard<std::mutex> lock(mu_);
  if (written) {
    auto it = disk_index_.find(key);
    if (it != disk_index_.end()) {
      disk_bytes_ -= it->second.bytes;  // Overwrite: replace the old size.
    }
    disk_index_[key] = DiskEntry{static_cast<int64_t>(blob.size()), ++access_counter_};
    disk_bytes_ += static_cast<int64_t>(blob.size());
    EnforceLimitsLocked();
  }
  UpdateMetricsLocked();
}

FlightOutcome PlanCache::JoinFlight(const PlanCacheKey& key, ParallelPlan* plan,
                                    Status* status, double deadline_seconds) {
  if (Lookup(key, plan)) {
    return FlightOutcome::kHit;
  }
  static Metric* memory_hits = Metrics::Get("plan_cache/memory_hits");
  static Metric* leaders = Metrics::Get("plan_cache/flight_leaders");
  static Metric* followers = Metrics::Get("plan_cache/flight_followers");
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-check memory under the lock: a leader may have published between
    // the Lookup above and here.
    const auto hit = entries_.find(key);
    if (hit != entries_.end()) {
      *plan = hit->second;
      memory_hits->Add(1);
      return FlightOutcome::kHit;
    }
    auto it = flights_.find(key);
    if (it == flights_.end()) {
      flights_.emplace(key, std::make_shared<Flight>());
      leaders->Add(1);
      return FlightOutcome::kLeader;
    }
    flight = it->second;
    followers->Add(1);
  }
  std::unique_lock<std::mutex> lock(flight->mu);
  if (WaitableDeadline(deadline_seconds)) {
    // A follower with a short deadline must not inherit the leader's
    // compile time: fail fast on expiry. The flight stays registered —
    // the leader and any patient followers are unaffected.
    if (!flight->cv.wait_for(lock, std::chrono::duration<double>(deadline_seconds),
                             [&] { return flight->done; })) {
      *status = Status::DeadlineExceeded(StrFormat(
          "deadline of %.3fs expired waiting on an in-flight compile", deadline_seconds));
      return FlightOutcome::kFailed;
    }
  } else {
    flight->cv.wait(lock, [&] { return flight->done; });
  }
  if (flight->ok) {
    *plan = flight->plan;
    return FlightOutcome::kHit;
  }
  *status = flight->status;
  return FlightOutcome::kFailed;
}

void PlanCache::FinishFlight(const PlanCacheKey& key, const StatusOr<ParallelPlan>& result) {
  if (result.ok()) {
    // Publish through the cache first so a follower that re-enters
    // JoinFlight after waking (or a brand-new request) hits memory.
    Insert(key, result.value());
  }
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) {
      return;  // FinishFlight without JoinFlight: nothing to publish.
    }
    flight = std::move(it->second);
    flights_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->ok = result.ok();
    if (result.ok()) {
      flight->plan = result.value();
    } else {
      flight->status = result.status();
    }
  }
  flight->cv.notify_all();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PlanCache::disk_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_index_.size();
}

int64_t PlanCache::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_bytes_;
}

void PlanCache::Clear(bool also_disk) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  if (also_disk && !disk_dir_.empty()) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(disk_dir_, ec)) {
      if (entry.path().extension() == ".plan") {
        std::filesystem::remove(entry.path(), ec);
      }
    }
    disk_index_.clear();
    disk_bytes_ = 0;
    access_counter_ = 0;
  }
  UpdateMetricsLocked();
}

bool ComputePlanCacheKey(const Graph& graph, const ClusterSpec& cluster,
                         const ParallelizeOptions& options, PlanCacheKey* key) {
  const IntraOpOptions& intra = options.inter.profiler.intra;
  // A closure cannot be folded into a hash.
  if (intra.filter != nullptr) {
    return false;
  }
  // A profile source without a stable fingerprint makes the compile
  // irreproducible from hashable inputs — the bug this key exists to
  // prevent is a measured-profile recompile silently aliasing the
  // analytical entry.
  const uint64_t profile_fingerprint =
      options.inter.profile_source != nullptr ? options.inter.profile_source->Fingerprint() : 0;
  if (options.inter.profile_source != nullptr && profile_fingerprint == 0) {
    return false;
  }

  // Graph: hash the wire encoding — full field coverage (names and layer
  // tags included) by construction, unlike StructuralHash.
  {
    WireWriter w;
    EncodeGraph(graph, &w);
    Fnv1a64 hasher;
    hasher.Bytes(w.data().data(), w.size());
    key->graph_hash = hasher.hash();
  }

  // Config: full cluster (extent + faults, via the wire encoding) and
  // every plain option field that steers compilation. compile_threads and
  // trace_path are deliberately excluded: both are guaranteed
  // plan-invariant (PlanEquals determinism). So are the fields Parallelize
  // overwrites before they are read: intra.precision (inferred from the
  // parameters) and intra.num_microbatches (set from inter's).
  Fnv1a64 hasher;
  {
    WireWriter w;
    EncodeClusterSpec(cluster, &w);
    hasher.Bytes(w.data().data(), w.size());
  }
  hasher.I32(static_cast<int32_t>(options.schedule));
  hasher.Bool(options.enable_interop);
  hasher.Bool(options.enable_intraop);
  hasher.I32(static_cast<int32_t>(options.reshard));
  const InterOpOptions& inter = options.inter;
  hasher.I32(inter.num_microbatches);
  hasher.I32(inter.target_layers);
  hasher.I32(static_cast<int32_t>(inter.clustering));
  hasher.Bool(inter.equal_layer_stages);
  hasher.Bool(inter.hetero_aware);
  hasher.Double(inter.dp.device_memory_override);
  hasher.I32(inter.dp.max_tmax_candidates);
  hasher.I32(static_cast<int32_t>(inter.submesh_shapes.size()));
  for (const SubmeshShape& shape : inter.submesh_shapes) {
    hasher.I32(shape.num_hosts).I32(shape.devices_per_host);
  }
  hasher.Bool(inter.profiler.memory_modes);
  hasher.Bool(intra.rematerialize);
  hasher.I64(intra.solver.max_search_nodes);
  hasher.U64(profile_fingerprint);
  key->config_hash = hasher.hash();
  return true;
}

}  // namespace serve
}  // namespace alpa
