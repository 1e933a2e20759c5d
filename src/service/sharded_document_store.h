// The document store, standing in for Cosmos DB in the paper's Fig. 2: the
// live plane publishes recommendation and tuning documents here, and pooling
// workers and GetRecommendation read them back. It is sharded and
// snapshot-read for the serving hot path: N power-of-two shards, FNV-1a
// pool-key hash -> shard, per-shard writer mutex, and an RCU-style immutable
// snapshot per shard so GetRecommendation readers never hold a lock while
// they look up or copy a document.
//
// Read path: readers atomically load the shard's `shared_ptr<const
// Snapshot>`, then do a plain map lookup and copy the pre-serialized payload
// bytes — no lock is held during the lookup or the copy, and a concurrent
// publish can never mutate a snapshot a reader already holds. Writers
// serialize per shard on the shard mutex, copy-on-write the shard map, and
// publish the new snapshot with one atomic pointer store.
//
// Payload caching: each document's response bytes live behind a
// `shared_ptr<const std::string>` that is built once per distinct value. A
// Put whose bytes equal the currently stored value reuses the existing
// payload buffer and keeps the version — so a live tick that republishes an
// unchanged fleet allocates nothing on the read path and bumps no versions.
// payload_builds() counts fresh payload materializations; tests assert it
// stays flat across ticks that publish identical documents.
//
// Versioning: each key's version increments once per distinct value; a
// byte-identical Put refreshes `updated_at` but keeps the version (the
// document, as served, did not change). Timestamps are virtual-time values
// supplied by the caller; nothing reads a wall clock.
#ifndef IPOOL_SERVICE_SHARDED_DOCUMENT_STORE_H_
#define IPOOL_SERVICE_SHARDED_DOCUMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ipool {

class ShardedDocumentStore {
 public:
  /// A document as Get returns it.
  struct Document {
    std::string value;
    double updated_at = 0.0;
    int64_t version = 0;
  };

  /// One write in a PutBatch.
  struct PutOp {
    std::string key;
    std::string value;
    double time = 0.0;
  };

  /// `shards` is rounded up to the next power of two (minimum 1).
  explicit ShardedDocumentStore(size_t shards = kDefaultShards);

  static constexpr size_t kDefaultShards = 16;

  /// Creates or overwrites. The version increments per distinct value; a
  /// byte-identical overwrite refreshes `updated_at` but keeps the version
  /// and reuses the cached payload buffer.
  void Put(const std::string& key, std::string value, double time);

  /// Applies every op, grouped so each shard is locked and its snapshot
  /// swapped exactly once — readers of a shard observe either none or all of
  /// the batch's writes to that shard (the live tick's per-shard atomic
  /// publish).
  void PutBatch(std::vector<PutOp> ops);

  /// NotFound if the key has never been written (or was deleted).
  Result<Document> Get(const std::string& key) const;

  /// The serving fast path: the document's response bytes, or null when the
  /// key is absent. Lock-free after the atomic snapshot load; the returned
  /// buffer is immutable and safe to read after any number of later Puts.
  std::shared_ptr<const std::string> GetPayload(const std::string& key) const;

  /// True if something was deleted.
  bool Delete(const std::string& key);

  size_t size() const;
  size_t shard_count() const { return shards_.size(); }

  /// Times a Put materialized new payload bytes (first write of a key, or a
  /// value change). Flat across byte-identical republishes.
  uint64_t payload_builds() const {
    return payload_builds_.load(std::memory_order_relaxed);
  }

  /// FNV-1a(key) & (shard_count-1). Exposed so tests can pick colliding and
  /// non-colliding keys deliberately.
  size_t ShardIndex(const std::string& key) const;

 private:
  struct Entry {
    std::shared_ptr<const std::string> payload;
    double updated_at = 0.0;
    int64_t version = 0;
  };
  struct Snapshot {
    std::map<std::string, Entry> docs;
  };
  struct Shard {
    /// Serializes writers only; readers never take it.
    std::mutex write_mu;
    std::atomic<std::shared_ptr<const Snapshot>> snapshot;
  };

  /// Applies `ops[i]` for i in `indices` to one shard under its writer
  /// mutex, publishing a single new snapshot.
  void ApplyToShard(Shard& shard, std::vector<PutOp>& ops,
                    const std::vector<size_t>& indices);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> payload_builds_{0};
};

}  // namespace ipool

#endif  // IPOOL_SERVICE_SHARDED_DOCUMENT_STORE_H_
