// Versioned binary serialization for plans and their inputs (the wire
// format of the plan service).
//
// Today a CompiledPipeline dies with the process that compiled it. The
// serve subsystem needs plans that outlive processes (disk-backed plan
// cache) and cross process boundaries (the alpa_serve daemon), so every
// core artifact — the operator graph, ClusterSpec, ParallelPlan (compiled
// pipeline + simulator input + compile stats), ExecutionStats, and the
// executor's measured StageTimings — gets an explicit binary encoding here.
//
// Format. Every serialized blob is an *envelope*:
//
//   offset  size  field
//   0       4     magic 0x414C5057 ("ALPW", read as LE u32)
//   4       2     format version (kWireVersion)
//   6       2     payload kind (WireKind) — what the payload decodes as
//   8       8     payload length N (LE u64)
//   16      N     payload (the type's field-by-field encoding)
//   16+N    8     FNV-1a 64 checksum of the payload bytes
//
// All integers are fixed-width little-endian; doubles travel as the LE bit
// pattern of their IEEE-754 representation, so round-trips are bit-exact
// (PlanEquals-identity is asserted by tests, including every latency
// double). Strings and vectors are u32-length-prefixed.
//
// Robustness contract: Deserialize* NEVER crashes or reads out of bounds on
// hostile input. Truncation (at any byte), bit flips (caught by the
// checksum), wrong magic, version skew, or out-of-range enum/count fields
// all return a structured Status (kInvalidArgument) naming the problem and
// the byte offset. This is the property the adversarial decode tests (and
// their ASan-instrumented twin) lock in.
//
// Versioning policy: kWireVersion bumps on ANY change to an existing
// payload encoding. Decoders accept exactly their own version — a version
// mismatch is an error, never a silent misparse — and new payload kinds may
// be added without a bump (unknown kinds are rejected by the expected-kind
// check). Cache files carry the version in the envelope, so a format bump
// simply invalidates old disk entries (decode fails, the cache treats the
// file as a miss).
#ifndef SRC_SERVE_WIRE_H_
#define SRC_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/api.h"
#include "src/exec/profiler.h"
#include "src/graph/graph.h"
#include "src/inter/inter_pass.h"
#include "src/mesh/cluster_spec.h"
#include "src/support/status.h"

namespace alpa {
namespace serve {

inline constexpr uint32_t kWireMagic = 0x414C5057u;  // "ALPW".
// v2: CompileStats gained ilp_aborts + max_optimality_gap (anytime
// contract); requests carry the elimination-table cap; responses carry the
// plan's optimality gap and results-database record lists.
// v3: ClusterSpec carries per-host DeviceSpec overrides (mixed-generation
// clusters); responses carry elastic speculation stats; new kElasticStats
// request method.
// v4: requests no longer carry the elimination-table cap.
inline constexpr uint16_t kWireVersion = 4;

// What an envelope's payload decodes as.
enum class WireKind : uint16_t {
  kGraph = 1,
  kClusterSpec = 2,
  kPlan = 3,            // ParallelPlan: pipeline + sim input + compile stats.
  kExecutionStats = 4,
  kStageTimings = 5,    // ExecResult::stage_timings.
  kRequest = 6,         // Serve protocol request (src/serve/protocol.h).
  kResponse = 7,        // Serve protocol response.
  kCacheEntry = 8,      // Plan-cache disk entry: key + plan.
  kRepairResult = 9,
  kPlanRecord = 10,     // Results-database record (src/serve/plan_db.h).
};

// --- Primitive append-only writer. Infallible; everything fits in RAM. ---
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v));
    U8(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v));
    U16(static_cast<uint16_t>(v >> 16));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);  // IEEE-754 bit pattern, LE.
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s);
  // Raw bytes, no length prefix (composing pre-encoded payloads).
  void Raw(std::string_view bytes) { buf_.append(bytes); }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

// --- Bounds-checked reader. The first out-of-bounds read latches an error
// (with the offending byte offset); subsequent reads return zeros, so
// decoders can read a whole struct and check ok() once. Decoders still
// validate VALUES (enum ranges, counts, cross-field invariants) and fail
// with their own Status. ---
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();

  // Count prefix for a vector whose elements occupy >= `min_element_bytes`
  // each; fails (returning 0) when the remaining bytes cannot possibly hold
  // that many elements — the guard that keeps corrupt counts from turning
  // into multi-gigabyte allocations.
  uint32_t Count(size_t min_element_bytes);

  bool ok() const { return error_.empty(); }
  // kInvalidArgument naming the first failure and its byte offset.
  Status status() const;
  void Fail(const std::string& why);

  size_t offset() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(size_t n, const char* what);

  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;
};

// --- Envelope ---

// Wraps an encoded payload in the versioned, checksummed envelope.
std::string WirePack(WireKind kind, std::string payload);
// Verifies magic, version, kind, length, and checksum; on success points
// `payload` into `blob` (no copy). Any violation: kInvalidArgument.
Status WireUnpack(std::string_view blob, WireKind expected_kind, std::string_view* payload);

// --- Field-level codecs (payload encodings, no envelope). Encode* never
// fails; Decode* validates and returns kInvalidArgument on malformed
// input, leaving `out` in an unspecified but destructible state. ---
void EncodeGraph(const Graph& graph, WireWriter* w);
Status DecodeGraph(WireReader* r, Graph* out);
void EncodeClusterSpec(const ClusterSpec& cluster, WireWriter* w);
Status DecodeClusterSpec(WireReader* r, ClusterSpec* out);
void EncodePipeline(const CompiledPipeline& pipeline, WireWriter* w);
Status DecodePipeline(WireReader* r, CompiledPipeline* out);
void EncodeSimInput(const PipelineSimInput& input, WireWriter* w);
Status DecodeSimInput(WireReader* r, PipelineSimInput* out);
void EncodePlan(const ParallelPlan& plan, WireWriter* w);
Status DecodePlan(WireReader* r, ParallelPlan* out);
void EncodeExecutionStats(const ExecutionStats& stats, WireWriter* w);
Status DecodeExecutionStats(WireReader* r, ExecutionStats* out);
void EncodeStageTimings(const std::vector<exec::StageTiming>& timings, WireWriter* w);
Status DecodeStageTimings(WireReader* r, std::vector<exec::StageTiming>* out);
void EncodeRepairResult(const RepairResult& result, WireWriter* w);
Status DecodeRepairResult(WireReader* r, RepairResult* out);

// --- One-call envelope serializers for the persistable artifacts. ---
std::string SerializeGraph(const Graph& graph);
StatusOr<Graph> DeserializeGraph(std::string_view blob);
std::string SerializeClusterSpec(const ClusterSpec& cluster);
StatusOr<ClusterSpec> DeserializeClusterSpec(std::string_view blob);
std::string SerializePlan(const ParallelPlan& plan);
StatusOr<ParallelPlan> DeserializePlan(std::string_view blob);
std::string SerializeExecutionStats(const ExecutionStats& stats);
StatusOr<ExecutionStats> DeserializeExecutionStats(std::string_view blob);
std::string SerializeStageTimings(const std::vector<exec::StageTiming>& timings);
StatusOr<std::vector<exec::StageTiming>> DeserializeStageTimings(std::string_view blob);

}  // namespace serve
}  // namespace alpa

#endif  // SRC_SERVE_WIRE_H_
