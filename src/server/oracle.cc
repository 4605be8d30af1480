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

Status CheckSerializability(ViewServer::Options options,
                            const std::vector<size_t>& worker_counts,
                            std::string* detail) {
  if (worker_counts.empty()) {
    return Status::InvalidArgument("no worker counts to check");
  }

  bool have_reference = false;
  ViewServer::Result reference;
  const Schedule* schedule = nullptr;
  std::unique_ptr<ViewServer> reference_server;
  for (const size_t workers : worker_counts) {
    options.workers = workers;
    VIEWMAT_ASSIGN_OR_RETURN(std::unique_ptr<ViewServer> server,
                             ViewServer::Create(options));
    VIEWMAT_ASSIGN_OR_RETURN(ViewServer::Result result, server->Run());
    if (result.queries_stale != 0) {
      return Status::Internal(
          "stale query answer at workers=" + std::to_string(workers) +
          " — a reader saw a non-serializable state");
    }
    if (!have_reference) {
      have_reference = true;
      reference = result;
      reference_server = std::move(server);
      schedule = &reference_server->schedule();
      continue;
    }
    // Worker count must be invisible to every logical outcome.
    if (result.state_digest != reference.state_digest) {
      return Status::Internal(
          "state digest diverged at workers=" + std::to_string(workers));
    }
    if (result.committed != reference.committed ||
        result.aborted != reference.aborted ||
        result.rejected != reference.rejected ||
        result.skipped != reference.skipped) {
      return Status::Internal(
          "transaction outcomes diverged at workers=" +
          std::to_string(workers));
    }
    for (size_t i = 0; i < result.ops.size(); ++i) {
      if (result.ops[i].status != reference.ops[i].status ||
          !(result.ops[i].cost == reference.ops[i].cost)) {
        return Status::Internal("op " + std::to_string(i) +
                                " diverged at workers=" +
                                std::to_string(workers));
      }
    }
  }

  VIEWMAT_ASSIGN_OR_RETURN(const uint64_t serial_digest,
                           SerialReplayDigest(options, *schedule,
                                              reference.ops));
  if (serial_digest != reference.state_digest) {
    return Status::Internal(
        "concurrent final state does not equal the serial order of its "
        "committed transactions");
  }
  if (detail != nullptr) {
    *detail += "serializable: " + std::to_string(reference.committed) +
               " committed, " + std::to_string(reference.aborted) +
               " aborted, " + std::to_string(reference.logical_conflicts) +
               " conflicts, digest " +
               std::to_string(reference.state_digest) + "\n";
  }
  return Status::OK();
}

}  // namespace viewmat::server
