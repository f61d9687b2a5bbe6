#include "src/serve/protocol.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "src/support/strings.h"

namespace alpa {
namespace serve {

namespace {

void EncodeOptions(const PlanRequestOptions& options, WireWriter* w) {
  w->I32(options.num_microbatches);
  w->I32(options.target_layers);
  w->U8(static_cast<uint8_t>(options.schedule));
  w->Bool(options.enable_interop);
  w->Bool(options.enable_intraop);
  w->Bool(options.equal_layer_stages);
  w->U8(static_cast<uint8_t>(options.reshard));
  w->I64(options.max_search_nodes);
  w->F64(options.deadline_seconds);
  w->Str(options.tenant);
  w->Bool(options.use_plan_cache);
}

Status DecodeOptions(WireReader* r, PlanRequestOptions* out) {
  out->num_microbatches = r->I32();
  out->target_layers = r->I32();
  const uint8_t schedule = r->U8();
  if (schedule > static_cast<uint8_t>(PipelineScheduleType::k1F1B)) {
    return Status::InvalidArgument(StrFormat("wire: schedule out of range (got %u)", schedule));
  }
  out->schedule = static_cast<PipelineScheduleType>(schedule);
  out->enable_interop = r->Bool();
  out->enable_intraop = r->Bool();
  out->equal_layer_stages = r->Bool();
  const uint8_t reshard = r->U8();
  if (reshard > static_cast<uint8_t>(ReshardStrategy::kLocalAllGather)) {
    return Status::InvalidArgument(StrFormat("wire: reshard out of range (got %u)", reshard));
  }
  out->reshard = static_cast<ReshardStrategy>(reshard);
  out->max_search_nodes = r->I64();
  out->deadline_seconds = r->F64();
  out->tenant = r->Str();
  out->use_plan_cache = r->Bool();
  return r->status();
}

void EncodeRepairOptions(const RepairOptions& repair, WireWriter* w) {
  w->I32(repair.failed_host);
  w->F64(repair.mtbf.mtbf_seconds);
  w->F64(repair.mtbf.checkpoint_interval_seconds);
  w->F64(repair.mtbf.checkpoint_restore_seconds);
}

Status DecodeRepairOptions(WireReader* r, RepairOptions* out) {
  out->failed_host = r->I32();
  out->mtbf.mtbf_seconds = r->F64();
  out->mtbf.checkpoint_interval_seconds = r->F64();
  out->mtbf.checkpoint_restore_seconds = r->F64();
  return r->status();
}

}  // namespace

Status ServeResponse::ToStatus() const {
  if (code == static_cast<int32_t>(StatusCode::kOk)) {
    return Status::Ok();
  }
  return Status(static_cast<StatusCode>(code), message);
}

ServeResponse ServeResponse::FromStatus(const Status& status) {
  ServeResponse response;
  response.code = static_cast<int32_t>(status.code());
  response.message = status.message();
  return response;
}

std::string SerializeRequest(const ServeRequest& request) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(request.method));
  EncodeOptions(request.options, &w);
  EncodeGraph(request.graph, &w);
  EncodeClusterSpec(request.cluster, &w);
  w.Bool(request.has_plan);
  if (request.has_plan) {
    EncodePlan(request.plan, &w);
  }
  EncodeRepairOptions(request.repair, &w);
  w.Str(request.db_query.tenant);
  w.I32(request.db_query.limit);
  w.U64(request.db_key.graph_hash);
  w.U64(request.db_key.config_hash);
  return WirePack(WireKind::kRequest, w.Take());
}

StatusOr<ServeRequest> DeserializeRequest(std::string_view blob) {
  std::string_view payload;
  ALPA_RETURN_IF_ERROR(WireUnpack(blob, WireKind::kRequest, &payload));
  WireReader r(payload);
  ServeRequest request;
  const uint8_t method = r.U8();
  if (method < static_cast<uint8_t>(Method::kPing) ||
      method > static_cast<uint8_t>(Method::kElasticStats)) {
    return Status::InvalidArgument(StrFormat("wire: unknown method %u", method));
  }
  request.method = static_cast<Method>(method);
  ALPA_RETURN_IF_ERROR(DecodeOptions(&r, &request.options));
  ALPA_RETURN_IF_ERROR(DecodeGraph(&r, &request.graph));
  ALPA_RETURN_IF_ERROR(DecodeClusterSpec(&r, &request.cluster));
  request.has_plan = r.Bool();
  if (!r.ok()) {
    return r.status();
  }
  if (request.has_plan) {
    ALPA_RETURN_IF_ERROR(DecodePlan(&r, &request.plan));
  }
  ALPA_RETURN_IF_ERROR(DecodeRepairOptions(&r, &request.repair));
  request.db_query.tenant = r.Str();
  request.db_query.limit = r.I32();
  request.db_key.graph_hash = r.U64();
  request.db_key.config_hash = r.U64();
  if (!r.ok()) {
    return r.status();
  }
  if (request.db_query.limit < 0) {
    return Status::InvalidArgument("wire: negative db query limit");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("wire: %zu trailing bytes after request", r.remaining()));
  }
  return request;
}

std::string SerializeResponse(const ServeResponse& response) {
  WireWriter w;
  w.I32(response.code);
  w.Str(response.message);
  w.Bool(response.has_plan);
  if (response.has_plan) {
    EncodePlan(response.plan, &w);
  }
  w.Bool(response.has_stats);
  if (response.has_stats) {
    EncodeExecutionStats(response.stats, &w);
  }
  w.Bool(response.has_repair);
  if (response.has_repair) {
    EncodeRepairResult(response.repair, &w);
  }
  w.U32(static_cast<uint32_t>(response.records.size()));
  for (const PlanRecord& record : response.records) {
    EncodePlanRecord(record, &w);
  }
  w.F64(response.queue_seconds);
  w.F64(response.compile_seconds);
  w.Bool(response.plan_cache_hit);
  w.F64(response.optimality_gap);
  w.Bool(response.elastic_enabled);
  w.I64(response.elastic_speculations);
  w.I64(response.elastic_hits);
  w.I64(response.elastic_misses);
  w.I64(response.elastic_wasted);
  return WirePack(WireKind::kResponse, w.Take());
}

StatusOr<ServeResponse> DeserializeResponse(std::string_view blob) {
  std::string_view payload;
  ALPA_RETURN_IF_ERROR(WireUnpack(blob, WireKind::kResponse, &payload));
  WireReader r(payload);
  ServeResponse response;
  response.code = r.I32();
  if (response.code < 0 || response.code > static_cast<int32_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument(
        StrFormat("wire: status code %d out of range", response.code));
  }
  response.message = r.Str();
  response.has_plan = r.Bool();
  if (!r.ok()) {
    return r.status();
  }
  if (response.has_plan) {
    ALPA_RETURN_IF_ERROR(DecodePlan(&r, &response.plan));
  }
  response.has_stats = r.Bool();
  if (!r.ok()) {
    return r.status();
  }
  if (response.has_stats) {
    ALPA_RETURN_IF_ERROR(DecodeExecutionStats(&r, &response.stats));
  }
  response.has_repair = r.Bool();
  if (!r.ok()) {
    return r.status();
  }
  if (response.has_repair) {
    ALPA_RETURN_IF_ERROR(DecodeRepairResult(&r, &response.repair));
  }
  // 84 bytes minimum per record: 12 fixed fields + a string prefix.
  const uint32_t num_records = r.Count(84);
  response.records.resize(num_records);
  for (uint32_t i = 0; i < num_records; ++i) {
    ALPA_RETURN_IF_ERROR(DecodePlanRecord(&r, &response.records[i]));
  }
  response.queue_seconds = r.F64();
  response.compile_seconds = r.F64();
  response.plan_cache_hit = r.Bool();
  response.optimality_gap = r.F64();
  response.elastic_enabled = r.Bool();
  response.elastic_speculations = r.I64();
  response.elastic_hits = r.I64();
  response.elastic_misses = r.I64();
  response.elastic_wasted = r.I64();
  if (!r.ok()) {
    return r.status();
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("wire: %zu trailing bytes after response", r.remaining()));
  }
  return response;
}

Status ReadFrame(int fd, std::string* blob) {
  auto read_exact = [fd](char* buf, size_t n, bool* clean_eof) -> Status {
    size_t got = 0;
    while (got < n) {
      const ssize_t k = ::read(fd, buf + got, n - got);
      if (k == 0) {
        if (clean_eof != nullptr && got == 0) {
          *clean_eof = true;
          return Status::Unavailable("connection closed");
        }
        return Status::Internal("connection closed mid-frame");
      }
      if (k < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::Internal(StrFormat("read: %s", std::strerror(errno)));
      }
      got += static_cast<size_t>(k);
    }
    return Status::Ok();
  };

  char header[4];
  bool clean_eof = false;
  ALPA_RETURN_IF_ERROR(read_exact(header, 4, &clean_eof));
  uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    length = (length << 8) | static_cast<uint8_t>(header[i]);
  }
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument(StrFormat("frame of %u bytes exceeds cap", length));
  }
  blob->resize(length);
  return read_exact(blob->data(), length, nullptr);
}

Status WriteFrame(int fd, std::string_view blob) {
  if (blob.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds cap");
  }
  char header[4];
  const uint32_t length = static_cast<uint32_t>(blob.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((length >> (8 * i)) & 0xff);
  }
  auto write_all = [fd](const char* buf, size_t n) -> Status {
    size_t sent = 0;
    while (sent < n) {
      const ssize_t k = ::write(fd, buf + sent, n - sent);
      if (k < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::Internal(StrFormat("write: %s", std::strerror(errno)));
      }
      sent += static_cast<size_t>(k);
    }
    return Status::Ok();
  };
  ALPA_RETURN_IF_ERROR(write_all(header, 4));
  return write_all(blob.data(), blob.size());
}

}  // namespace serve
}  // namespace alpa
