#include "src/serve/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/support/strings.h"

namespace alpa {
namespace serve {

namespace {

// RAII connected socket.
class Connection {
 public:
  static StatusOr<Connection> Open(const std::string& socket_path) {
    if (socket_path.size() >= sizeof(sockaddr_un::sun_path)) {
      return Status::InvalidArgument("client: socket path too long for AF_UNIX");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Unavailable(StrFormat("socket: %s", std::strerror(errno)));
    }
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      ::close(fd);
      return Status::Unavailable(
          StrFormat("connect %s: %s", socket_path.c_str(), std::strerror(err)));
    }
    return Connection(fd);
  }

  Connection(Connection&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Connection(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  int fd() const { return fd_; }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
};

// Copies the serializable request fields; local-only options stay behind.
ServeRequest BuildRequest(Method method, const PlanRequest& request) {
  ServeRequest wire_request;
  wire_request.method = method;
  wire_request.options = request.options;
  wire_request.options.profile_source = nullptr;
  wire_request.options.trace_path.clear();
  wire_request.graph = request.graph;
  wire_request.cluster = request.cluster;
  return wire_request;
}

}  // namespace

StatusOr<ServeResponse> RemotePlanService::Call(const ServeRequest& request) {
  auto connection = Connection::Open(socket_path_);
  if (!connection.ok()) {
    return connection.status();
  }
  Status io = WriteFrame(connection.value().fd(), SerializeRequest(request));
  if (!io.ok()) {
    return Status::Unavailable("send failed: " + io.message());
  }
  std::string blob;
  io = ReadFrame(connection.value().fd(), &blob);
  if (!io.ok()) {
    return Status::Unavailable("receive failed: " + io.message());
  }
  return DeserializeResponse(blob);
}

StatusOr<ParallelPlan> RemotePlanService::Parallelize(const PlanRequest& request) {
  auto response = Call(BuildRequest(Method::kParallelize, request));
  if (!response.ok()) {
    return response.status();
  }
  ALPA_RETURN_IF_ERROR(response.value().ToStatus());
  if (!response.value().has_plan) {
    return Status::Internal("server returned OK without a plan");
  }
  return std::move(response).value().plan;
}

StatusOr<ExecutionStats> RemotePlanService::Simulate(const PlanRequest& request,
                                                     const ParallelPlan& plan) {
  ServeRequest wire_request = BuildRequest(Method::kSimulate, request);
  wire_request.has_plan = true;
  wire_request.plan = plan;
  auto response = Call(wire_request);
  if (!response.ok()) {
    return response.status();
  }
  ALPA_RETURN_IF_ERROR(response.value().ToStatus());
  if (!response.value().has_stats) {
    return Status::Internal("server returned OK without stats");
  }
  return response.value().stats;
}

StatusOr<RepairResult> RemotePlanService::Repair(const PlanRequest& request,
                                                 const RepairOptions& repair) {
  ServeRequest wire_request = BuildRequest(Method::kRepair, request);
  wire_request.repair = repair;
  auto response = Call(wire_request);
  if (!response.ok()) {
    return response.status();
  }
  ALPA_RETURN_IF_ERROR(response.value().ToStatus());
  if (!response.value().has_repair) {
    return Status::Internal("server returned OK without a repair result");
  }
  return std::move(response).value().repair;
}

StatusOr<std::vector<PlanRecord>> RemotePlanService::DbList(const PlanDbQuery& query,
                                                            const std::string& tenant) {
  ServeRequest request;
  request.method = Method::kDbList;
  request.options.tenant = tenant;
  request.db_query = query;
  auto response = Call(request);
  if (!response.ok()) {
    return response.status();
  }
  ALPA_RETURN_IF_ERROR(response.value().ToStatus());
  return std::move(response).value().records;
}

StatusOr<PlanRecord> RemotePlanService::DbGet(const PlanCacheKey& key,
                                              const std::string& tenant) {
  ServeRequest request;
  request.method = Method::kDbGet;
  request.options.tenant = tenant;
  request.db_key = key;
  auto response = Call(request);
  if (!response.ok()) {
    return response.status();
  }
  ALPA_RETURN_IF_ERROR(response.value().ToStatus());
  if (response.value().records.size() != 1) {
    return Status::Internal("server returned OK without a record");
  }
  return std::move(response).value().records.front();
}

Status RemotePlanService::DbDelete(const PlanCacheKey& key, const std::string& tenant) {
  ServeRequest request;
  request.method = Method::kDbDelete;
  request.options.tenant = tenant;
  request.db_key = key;
  auto response = Call(request);
  if (!response.ok()) {
    return response.status();
  }
  return response.value().ToStatus();
}

StatusOr<ServeResponse> RemotePlanService::ElasticStats() {
  ServeRequest request;
  request.method = Method::kElasticStats;
  auto response = Call(request);
  if (!response.ok()) {
    return response.status();
  }
  ALPA_RETURN_IF_ERROR(response.value().ToStatus());
  return std::move(response).value();
}

Status RemotePlanService::Ping() {
  ServeRequest request;
  request.method = Method::kPing;
  auto response = Call(request);
  if (!response.ok()) {
    return response.status();
  }
  return response.value().ToStatus();
}

}  // namespace serve
}  // namespace alpa
