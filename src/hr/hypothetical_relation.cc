#include "hr/hypothetical_relation.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace viewmat::hr {

namespace {

db::Relation* CheckedBase(db::Relation* base) {
  VIEWMAT_CHECK(base != nullptr);
  return base;
}

storage::BufferPool* PoolOf(db::Relation* base) {
  // The AD file lives on the same device as its base relation. Relation
  // does not expose its pool directly; thread it via the catalog-less path.
  return base->pool();
}

}  // namespace

HypotheticalRelation::HypotheticalRelation(db::Relation* base,
                                           AdFile::Options ad_options)
    : base_(CheckedBase(base)),
      ad_(PoolOf(base), base->schema(), base->key_field(), ad_options),
      visible_count_(base->tuple_count()) {}

Status HypotheticalRelation::RecordChanges(const db::NetChange& net) {
  for (const db::Tuple& t : net.deletes()) {
    VIEWMAT_RETURN_IF_ERROR(ad_.RecordDelete(t));
    --visible_count_;
  }
  for (const db::Tuple& t : net.inserts()) {
    VIEWMAT_RETURN_IF_ERROR(ad_.RecordInsert(t));
    ++visible_count_;
  }
  return Status::OK();
}

Status HypotheticalRelation::RecordChangesCommitted(const db::NetChange& net,
                                                    uint64_t txn_id) {
  const Status recorded = RecordChanges(net);
  if (!recorded.ok()) {
    // Some of the transaction's intents may already be applied to the hash
    // file; without a commit record they are an uncommitted tail that must
    // be rolled back before the file is read again.
    ad_.MarkNeedsRecovery();
    return recorded;
  }
  return ad_.CommitTxn(txn_id, net.deletes().size() + net.inserts().size());
}

Status HypotheticalRelation::FindAllByKey(
    int64_t key, const db::Relation::TupleVisitor& visit) const {
  std::vector<db::Tuple> pending_inserts;
  std::vector<db::Tuple> pending_deletes;
  // Bloom screen: on a negative answer the AD probe (and its I/O) is
  // skipped entirely; a false positive merely wastes the probe.
  if (ad_.MightContainKey(key)) {
    VIEWMAT_RETURN_IF_ERROR(
        ad_.VisitKey(key, [&](AdFile::Role role, const db::Tuple& t) {
          if (role == AdFile::Role::kAppended) {
            pending_inserts.push_back(t);
          } else {
            pending_deletes.push_back(t);
          }
          return true;
        }));
  }
  bool keep_going = true;
  for (const db::Tuple& t : pending_inserts) {
    if (!visit(t)) {
      keep_going = false;
      break;
    }
  }
  if (!keep_going) return Status::OK();
  return base_->FindAllByKey(key, [&](const db::Tuple& t) {
    const bool deleted = std::find(pending_deletes.begin(),
                                   pending_deletes.end(),
                                   t) != pending_deletes.end();
    if (deleted) return true;
    return visit(t);
  });
}

Status HypotheticalRelation::RangeScanByKey(
    int64_t lo, int64_t hi, const db::Relation::TupleVisitor& visit) const {
  std::vector<db::Tuple> a_net;
  std::vector<db::Tuple> d_net;
  VIEWMAT_RETURN_IF_ERROR(ad_.ScanNet(&a_net, &d_net));
  const size_t key_field = base_->key_field();
  auto key_of = [key_field](const db::Tuple& t) {
    return t.at(key_field).AsInt64();
  };
  auto in_range = [&](const db::Tuple& t) {
    const int64_t k = key_of(t);
    return k >= lo && k <= hi;
  };
  // The pending deletes grouped by key: a scanned row is compared only
  // with its own key's.
  std::vector<std::pair<int64_t, const db::Tuple*>> deletes;
  deletes.reserve(d_net.size());
  for (const db::Tuple& t : d_net) deletes.emplace_back(key_of(t), &t);
  std::sort(deletes.begin(), deletes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  bool keep_going = true;
  VIEWMAT_RETURN_IF_ERROR(
      base_->RangeScanByKey(lo, hi, [&](const db::Tuple& t) {
        const int64_t k = key_of(t);
        auto it = std::lower_bound(
            deletes.begin(), deletes.end(), k,
            [](const auto& d, int64_t key) { return d.first < key; });
        for (; it != deletes.end() && it->first == k; ++it) {
          if (*it->second == t) return true;  // a pending delete
        }
        keep_going = visit(t);
        return keep_going;
      }));
  if (!keep_going) return Status::OK();
  for (const db::Tuple& t : a_net) {
    if (in_range(t)) {
      if (!visit(t)) break;
    }
  }
  return Status::OK();
}

Status HypotheticalRelation::NetChanges(std::vector<db::Tuple>* a_net,
                                        std::vector<db::Tuple>* d_net) const {
  a_net->clear();
  d_net->clear();
  return ad_.ScanNet(a_net, d_net);
}

Status HypotheticalRelation::Fold(std::vector<db::Tuple>* a_net,
                                  std::vector<db::Tuple>* d_net) {
  std::vector<db::Tuple> a_local;
  std::vector<db::Tuple> d_local;
  std::vector<db::Tuple>* a = a_net != nullptr ? a_net : &a_local;
  std::vector<db::Tuple>* d = d_net != nullptr ? d_net : &d_local;
  VIEWMAT_RETURN_IF_ERROR(NetChanges(a, d));
  VIEWMAT_RETURN_IF_ERROR(FoldNoReset(*a, *d, /*idempotent=*/false));
  return ad_.Reset();
}

Status HypotheticalRelation::FoldNoReset(const std::vector<db::Tuple>& a_net,
                                         const std::vector<db::Tuple>& d_net,
                                         bool idempotent) {
  // R := (R ∪ A) − D: deletions first so a delete+reinsert of the same key
  // cannot remove the fresh copy.
  for (const db::Tuple& t : d_net) {
    const Status st = base_->DeleteExact(t);
    if (idempotent && st.code() == StatusCode::kNotFound) continue;
    VIEWMAT_RETURN_IF_ERROR(st);
  }
  for (const db::Tuple& t : a_net) {
    if (idempotent) {
      // Skip tuples an earlier partial fold already landed.
      bool present = false;
      VIEWMAT_RETURN_IF_ERROR(base_->FindAllByKey(
          t.at(base_->key_field()).AsInt64(), [&](const db::Tuple& existing) {
            present = existing == t;
            return !present;
          }));
      if (present) continue;
    }
    VIEWMAT_RETURN_IF_ERROR(base_->Insert(t));
  }
  return Status::OK();
}

Status HypotheticalRelation::Recover(AdFile::RecoveryInfo* info) {
  VIEWMAT_RETURN_IF_ERROR(ad_.Recover(info));
  std::vector<db::Tuple> a_net;
  std::vector<db::Tuple> d_net;
  VIEWMAT_RETURN_IF_ERROR(ad_.ScanNet(&a_net, &d_net));
  visible_count_ = base_->tuple_count() + a_net.size() - d_net.size();
  return Status::OK();
}

}  // namespace viewmat::hr
