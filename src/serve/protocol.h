// Request/response protocol of the plan server.
//
// One request = one kRequest wire envelope; one response = one kResponse
// envelope. On the socket each envelope travels as a frame:
//
//   u32 LE frame length N, then the N-byte envelope.
//
// The envelope already carries magic/version/kind/checksum, so the frame
// header is pure length delimitation. Frames are capped (kMaxFrameBytes);
// an oversized or malformed frame kills only that connection, never the
// server.
//
// The request payload carries the serializable subset of
// PlanRequestOptions plus the method's inputs (graph + cluster always;
// a plan for kSimulate; RepairOptions for kRepair). The response carries
// the structured Status (code + message) and the method's result, plus
// server-side observability fields (queue/compile seconds, cache hit) the
// storm bench reports.
#ifndef SRC_SERVE_PROTOCOL_H_
#define SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include <vector>

#include "src/serve/plan_db.h"
#include "src/serve/service.h"
#include "src/serve/wire.h"
#include "src/support/status.h"

namespace alpa {
namespace serve {

inline constexpr uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB.

enum class Method : uint8_t {
  kPing = 1,         // Liveness probe; empty result.
  kParallelize = 2,  // -> plan.
  kSimulate = 3,     // plan required -> stats.
  kRepair = 4,       // repair options required -> repair result.
  kDbList = 5,       // db_query -> records.
  kDbGet = 6,        // db_key -> records (one entry).
  kDbDelete = 7,     // db_key -> empty (kInvalidArgument when absent).
  kElasticStats = 8, // -> speculative re-planner counters (--elastic only).
};

struct ServeRequest {
  Method method = Method::kPing;
  PlanRequestOptions options;  // Serializable fields only.
  Graph graph;
  ClusterSpec cluster;
  bool has_plan = false;  // kSimulate.
  ParallelPlan plan;
  RepairOptions repair;   // kRepair.
  PlanDbQuery db_query;   // kDbList.
  PlanCacheKey db_key;    // kDbGet / kDbDelete.
};

struct ServeResponse {
  // Structured status (StatusCode as i32 + message).
  int32_t code = 0;
  std::string message;
  bool has_plan = false;
  ParallelPlan plan;
  bool has_stats = false;
  ExecutionStats stats;
  bool has_repair = false;
  RepairResult repair;
  // Results-database records (kDbList / kDbGet).
  std::vector<PlanRecord> records;
  // Server-side observability.
  double queue_seconds = 0.0;    // Admission -> worker pickup.
  double compile_seconds = 0.0;  // Worker compute time.
  bool plan_cache_hit = false;
  // Anytime quality of a returned plan: worst relative ILP gap among the
  // chosen stages' solves (0 = every solve proven optimal). Mirrors
  // plan.compile_stats.max_optimality_gap so dashboards need not decode
  // the plan.
  double optimality_gap = 0.0;
  // Speculative re-planner counters (src/elastic/speculator.h), filled
  // only on kElasticStats responses of an --elastic server; every other
  // response carries them zeroed.
  bool elastic_enabled = false;
  int64_t elastic_speculations = 0;
  int64_t elastic_hits = 0;
  int64_t elastic_misses = 0;
  int64_t elastic_wasted = 0;

  Status ToStatus() const;
  static ServeResponse FromStatus(const Status& status);
};

// Envelope-level (WirePack/WireUnpack included).
std::string SerializeRequest(const ServeRequest& request);
StatusOr<ServeRequest> DeserializeRequest(std::string_view blob);
std::string SerializeResponse(const ServeResponse& response);
StatusOr<ServeResponse> DeserializeResponse(std::string_view blob);

// Blocking frame IO on a connected socket/pipe fd. ReadFrame returns
// kUnavailable on clean EOF before any byte, kInternal on IO errors or
// timeouts, kInvalidArgument on an oversized frame. WriteFrame retries
// short writes.
Status ReadFrame(int fd, std::string* blob);
Status WriteFrame(int fd, std::string_view blob);

}  // namespace serve
}  // namespace alpa

#endif  // SRC_SERVE_PROTOCOL_H_
