#ifndef VIEWMAT_DB_RELATION_H_
#define VIEWMAT_DB_RELATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/hash_index.h"
#include "storage/heap_file.h"

namespace viewmat::db {

/// Physical organization of a stored relation — the three access methods
/// the paper's analysis assumes (§3.1).
enum class AccessMethod {
  kClusteredBTree,  ///< clustered B+-tree on the key field (R, R1, V)
  kClusteredHash,   ///< clustered hashing on the key field (R2, AD)
  kHeap,            ///< unordered; paired with an unclustered key index
};

/// A stored relation: a schema bound to an access method over the buffer
/// pool. The "key field" is the clustering attribute (predicate field for
/// B+-trees, join/hash field for hash relations) and must be int64. Keys
/// need not be unique.
///
/// Heap relations keep an in-memory multimap from key to RID standing in
/// for an unclustered secondary index; its traversal is not charged,
/// matching TOTAL_unclustered which charges only the y(N, b, ...) data-page
/// fetches.
class Relation {
 public:
  using TupleVisitor = std::function<bool(const Tuple&)>;
  /// Visitor over serialized records (schema().record_size() bytes each).
  using RecordVisitor = std::function<bool(const uint8_t* record)>;

  struct Options {
    /// Bucket count for kClusteredHash; 0 sizes it for `expected_tuples`.
    uint32_t hash_buckets = 0;
    /// Used to size hashing when hash_buckets == 0.
    size_t expected_tuples = 1024;
  };

  Relation(storage::BufferPool* pool, std::string name, Schema schema,
           AccessMethod method, size_t key_field, Options options);
  Relation(storage::BufferPool* pool, std::string name, Schema schema,
           AccessMethod method, size_t key_field)
      : Relation(pool, std::move(name), std::move(schema), method, key_field,
                 Options()) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  storage::BufferPool* pool() const { return pool_; }
  const Schema& schema() const { return schema_; }
  AccessMethod method() const { return method_; }
  size_t key_field() const { return key_field_; }
  size_t tuple_count() const { return tuple_count_; }

  /// The clustering key of a tuple under this relation's schema.
  int64_t KeyOf(const Tuple& t) const;

  Status Insert(const Tuple& t);

  /// Bulk-loads a B+-tree relation from a key-sorted tuple stream, packing
  /// pages completely (the layout the paper's formulas assume). The
  /// relation must be empty and clustered by B+-tree. `source` returns
  /// false when exhausted.
  Status BulkLoadSorted(const std::function<bool(Tuple*)>& source);

  /// Rebuilds a B+-tree relation into packed pages, reclaiming empty
  /// leaves left by deletions (offline vacuum).
  Status Compact();

  /// Deletes one stored tuple equal to `t` (all fields). NotFound if absent.
  Status DeleteExact(const Tuple& t);

  /// Replaces one stored tuple equal to `old_t` with `new_t`. When the key
  /// is unchanged this is an in-place payload update (1 logical read +
  /// write); otherwise a delete + insert.
  Status UpdateExact(const Tuple& old_t, const Tuple& new_t);

  /// First tuple with the key, or NotFound.
  Status FindByKey(int64_t key, Tuple* out) const;

  /// All tuples with the key (duplicates included).
  Status FindAllByKey(int64_t key, const TupleVisitor& visit) const;

  /// Every tuple, in the access method's natural order.
  Status Scan(const TupleVisitor& visit) const;

  /// Tuples with key in [lo, hi]. B+-tree: clustered leaf scan in key
  /// order. Heap: unclustered scan through the secondary index (random data
  /// page fetches). Hash: InvalidArgument — hashing cannot serve ranges.
  Status RangeScanByKey(int64_t lo, int64_t hi, const TupleVisitor& visit) const;

  /// The same scan over the serialized records, for callers that decode
  /// only what they need. A record pointer is valid only during its visit.
  /// RangeScanByKey is this scan plus Tuple::Deserialize.
  Status RangeScanRecords(int64_t lo, int64_t hi,
                          const RecordVisitor& visit) const;

  /// Pages occupied by data (for experiment reporting).
  size_t data_page_count() const;

 private:
  Status HeapDeleteWhere(int64_t key,
                         const std::function<bool(const Tuple&)>& pred);

  storage::BufferPool* pool_;
  std::string name_;
  Schema schema_;
  AccessMethod method_;
  size_t key_field_;
  size_t tuple_count_ = 0;

  // Exactly one of these is active, per method_.
  std::unique_ptr<storage::BPTree> btree_;
  std::unique_ptr<storage::HashIndex> hash_;
  std::unique_ptr<storage::HeapFile> heap_;
  std::multimap<int64_t, storage::Rid> heap_key_index_;
};

}  // namespace viewmat::db

#endif  // VIEWMAT_DB_RELATION_H_
