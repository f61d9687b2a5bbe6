#include "src/serve/plan_db.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/support/strings.h"

namespace alpa {
namespace serve {

void EncodePlanRecord(const PlanRecord& record, WireWriter* w) {
  w->U64(record.key.graph_hash);
  w->U64(record.key.config_hash);
  w->Str(record.tenant);
  w->U64(record.profile_fingerprint);
  w->I32(record.num_ops);
  w->I32(record.num_hosts);
  w->I32(record.devices_per_host);
  w->I32(record.num_stages);
  w->F64(record.compile_seconds);
  w->F64(record.objective);
  w->F64(record.optimality_gap);
  w->I64(record.ilp_aborts);
  w->I64(record.plan_bytes);
}

Status DecodePlanRecord(WireReader* r, PlanRecord* out) {
  out->key.graph_hash = r->U64();
  out->key.config_hash = r->U64();
  out->tenant = r->Str();
  out->profile_fingerprint = r->U64();
  out->num_ops = r->I32();
  out->num_hosts = r->I32();
  out->devices_per_host = r->I32();
  out->num_stages = r->I32();
  out->compile_seconds = r->F64();
  out->objective = r->F64();
  out->optimality_gap = r->F64();
  out->ilp_aborts = r->I64();
  out->plan_bytes = r->I64();
  if (!r->ok()) {
    return r->status();
  }
  if (out->num_ops < 0 || out->num_hosts < 0 || out->devices_per_host < 0 ||
      out->num_stages < 0 || out->plan_bytes < 0) {
    return Status::InvalidArgument("wire: negative extent in plan record");
  }
  return Status::Ok();
}

PlanDb& PlanDb::Global() {
  static PlanDb* db = new PlanDb();
  return *db;
}

Status PlanDb::SetDir(const std::string& dir) {
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal(
          StrFormat("plan db: cannot create %s: %s", dir.c_str(), ec.message().c_str()));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = dir;
  records_.clear();
  if (dir.empty()) {
    return Status::Ok();
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".rec") {
      continue;
    }
    const std::string path = entry.path().string();
    std::string blob;
    std::string_view payload;
    PlanRecord record;
    bool valid = false;
    if (ReadFile(path, &blob) &&
        WireUnpack(blob, WireKind::kPlanRecord, &payload).ok()) {
      WireReader r(payload);
      valid = DecodePlanRecord(&r, &record).ok() && r.remaining() == 0;
    }
    if (valid) {
      records_[record.key] = std::move(record);
    } else {
      // Corrupt or version-skewed: self-clean, same policy as the cache.
      std::remove(path.c_str());
    }
  }
  return Status::Ok();
}

std::string PlanDb::dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

std::string PlanDb::RecordPath(const PlanCacheKey& key) const {
  return StrFormat("%s/%016llx-%016llx.rec", dir_.c_str(),
                   static_cast<unsigned long long>(key.graph_hash),
                   static_cast<unsigned long long>(key.config_hash));
}

void PlanDb::Put(const PlanRecord& record) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records_[record.key] = record;
    if (dir_.empty()) {
      return;
    }
    path = RecordPath(record.key);
  }
  WireWriter w;
  EncodePlanRecord(record, &w);
  WriteFileAtomic(path, WirePack(WireKind::kPlanRecord, w.Take()));
}

std::vector<PlanRecord> PlanDb::List(const PlanDbQuery& query) const {
  std::vector<PlanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, record] : records_) {
    if (!query.tenant.empty() && record.tenant != query.tenant) {
      continue;
    }
    out.push_back(record);
    if (query.limit > 0 && static_cast<int32_t>(out.size()) >= query.limit) {
      break;
    }
  }
  return out;
}

StatusOr<PlanRecord> PlanDb::Get(const PlanCacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(key);
  if (it == records_.end()) {
    return Status::InvalidArgument(
        StrFormat("plan db: no record for %016llx-%016llx",
                  static_cast<unsigned long long>(key.graph_hash),
                  static_cast<unsigned long long>(key.config_hash)));
  }
  return it->second;
}

bool PlanDb::Delete(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(key);
  if (it == records_.end()) {
    return false;
  }
  if (!dir_.empty()) {
    std::remove(RecordPath(key).c_str());
  }
  records_.erase(it);
  return true;
}

size_t PlanDb::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void PlanDb::Clear(bool also_disk) {
  std::lock_guard<std::mutex> lock(mu_);
  if (also_disk && !dir_.empty()) {
    for (const auto& [key, record] : records_) {
      std::remove(RecordPath(key).c_str());
    }
  }
  records_.clear();
}

}  // namespace serve
}  // namespace alpa
