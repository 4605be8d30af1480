#include "server/oracle.h"

#include <memory>

#include "common/logging.h"
#include "sim/oracle.h"

namespace viewmat::server {

StatusOr<uint64_t> SerialReplayDigest(
    const ViewServer::Options& options, const Schedule& schedule,
    const std::vector<ViewServer::OpResult>& ops) {
  if (ops.size() != schedule.ops.size()) {
    return Status::InvalidArgument("op results do not match the schedule");
  }
  std::vector<sim::Victims> committed;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    if (ops[i].status == OpStatus::kCommitted) {
      committed.push_back(schedule.ops[i].victims);
    }
  }
  return sim::ReplayDigest(options.driver, committed);
}

Status CheckSerializability(const ViewServer::Options& options,
                            std::string* detail) {
  VIEWMAT_ASSIGN_OR_RETURN(std::unique_ptr<ViewServer> server,
                           ViewServer::Create(options));
  VIEWMAT_ASSIGN_OR_RETURN(const ViewServer::Result result, server->Run());
  if (result.queries_stale != 0) {
    return Status::Internal(
        "stale query answer — a reader saw a non-serializable state");
  }
  VIEWMAT_ASSIGN_OR_RETURN(
      const uint64_t serial_digest,
      SerialReplayDigest(options, server->schedule(), result.ops));
  if (serial_digest != result.state_digest) {
    return Status::Internal(
        "final state does not equal the serial order of its committed "
        "transactions");
  }
  if (detail != nullptr) {
    *detail += "serializable: " + std::to_string(result.committed) +
               " committed, " + std::to_string(result.aborted) +
               " aborted, " + std::to_string(result.logical_conflicts) +
               " conflicts, digest " + std::to_string(result.state_digest) +
               "\n";
  }
  return Status::OK();
}

}  // namespace viewmat::server
